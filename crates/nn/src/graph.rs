//! Network DAG construction and structural queries.
//!
//! A [`NetworkSpec`] is a list of layers in topological order (parents
//! precede children — enforced at construction). It supports the graph
//! operations the rest of the workspace needs: shape inference, child
//! maps, and the longest-path decomposition the strategy optimizer uses
//! for branching networks (paper §V-C).

use crate::layer::{infer_shape, LayerKind, LayerSpec};
use fg_kernels::pool::PoolKind;

/// A declarative network description; layers are stored in topological
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkSpec {
    layers: Vec<LayerSpec>,
    /// Per-sample output shape of every layer, inferred as the layer is
    /// added (parents precede children, so theirs are already known).
    shapes: Vec<(usize, usize, usize)>,
}

/// Index of a layer within a [`NetworkSpec`].
pub type LayerId = usize;

impl NetworkSpec {
    /// Empty network.
    pub fn new() -> Self {
        NetworkSpec::default()
    }

    /// Append a layer; parents must already exist. Returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: LayerKind,
        parents: &[LayerId],
    ) -> LayerId {
        let name = name.into();
        assert!(self.layers.iter().all(|l| l.name != name), "duplicate layer name {name}");
        for &p in parents {
            assert!(p < self.layers.len(), "parent {p} does not exist yet");
        }
        if matches!(kind, LayerKind::Input { .. }) {
            assert!(parents.is_empty(), "input layers have no parents");
        } else {
            assert!(!parents.is_empty(), "non-input layer needs parents");
        }
        let parent_shapes: Vec<_> = parents.iter().map(|&p| self.shapes[p]).collect();
        self.shapes.push(infer_shape(&kind, &parent_shapes));
        self.layers.push(LayerSpec { name, kind, parents: parents.to_vec() });
        self.layers.len() - 1
    }

    // ---- builder conveniences -------------------------------------------

    /// Add an input layer.
    pub fn input(&mut self, name: &str, channels: usize, height: usize, width: usize) -> LayerId {
        self.add(name, LayerKind::Input { channels, height, width }, &[])
    }

    /// Add a convolution (no bias — the conv+BN idiom; see
    /// [`LayerKind::Conv`]).
    pub fn conv(
        &mut self,
        name: &str,
        parent: LayerId,
        filters: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> LayerId {
        self.add(name, LayerKind::Conv { filters, kernel, stride, pad }, &[parent])
    }

    /// Add a batch-norm layer.
    pub fn batchnorm(&mut self, name: &str, parent: LayerId) -> LayerId {
        self.add(name, LayerKind::BatchNorm, &[parent])
    }

    /// Add a ReLU.
    pub fn relu(&mut self, name: &str, parent: LayerId) -> LayerId {
        self.add(name, LayerKind::Relu, &[parent])
    }

    /// Add a max pool.
    pub fn maxpool(
        &mut self,
        name: &str,
        parent: LayerId,
        k: usize,
        s: usize,
        p: usize,
    ) -> LayerId {
        self.add(
            name,
            LayerKind::Pool { kind: PoolKind::Max, kernel: k, stride: s, pad: p },
            &[parent],
        )
    }

    /// Add a residual join.
    pub fn add_join(&mut self, name: &str, parents: &[LayerId]) -> LayerId {
        self.add(name, LayerKind::Add, parents)
    }

    /// Add global average pooling.
    pub fn global_avg_pool(&mut self, name: &str, parent: LayerId) -> LayerId {
        self.add(name, LayerKind::GlobalAvgPool, &[parent])
    }

    /// Add a fully-connected layer.
    pub fn fc(&mut self, name: &str, parent: LayerId, out_features: usize) -> LayerId {
        self.add(name, LayerKind::Fc { out_features }, &[parent])
    }

    /// Add the softmax cross-entropy head.
    pub fn loss(&mut self, name: &str, parent: LayerId) -> LayerId {
        self.add(name, LayerKind::SoftmaxCrossEntropy, &[parent])
    }

    // ---- queries ---------------------------------------------------------

    /// All layers in topological order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for an empty network.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer by id.
    pub fn layer(&self, id: LayerId) -> &LayerSpec {
        &self.layers[id]
    }

    /// Find a layer id by name.
    pub fn find(&self, name: &str) -> Option<LayerId> {
        self.layers.iter().position(|l| l.name == name)
    }

    /// Children of each layer.
    fn children(&self) -> Vec<Vec<LayerId>> {
        let mut ch = vec![Vec::new(); self.layers.len()];
        for (id, l) in self.layers.iter().enumerate() {
            for &p in &l.parents {
                ch[p].push(id);
            }
        }
        ch
    }

    /// Per-sample output shapes `(C, H, W)` of every layer.
    pub fn shapes(&self) -> Vec<(usize, usize, usize)> {
        self.shapes.clone()
    }

    /// Per-sample output shape `(C, H, W)` of one layer.
    pub fn shape(&self, id: LayerId) -> (usize, usize, usize) {
        self.shapes[id]
    }

    /// Learnable parameter element count of every layer (conv weights
    /// are `F·C·K²`, batch norm `2·C`, FC
    /// `out·(in + 1)`, everything else 0) — pure shape arithmetic, equal
    /// to `init_params(self, _)[id].len()` without sampling a parameter
    /// set.
    pub fn param_elems(&self) -> Vec<usize> {
        (0..self.layers.len()).map(|id| self.layer_param_elems(id)).collect()
    }

    /// Learnable parameter element count of one layer
    /// ([`NetworkSpec::param_elems`]`[id]`).
    pub fn layer_param_elems(&self, id: LayerId) -> usize {
        let l = &self.layers[id];
        match &l.kind {
            LayerKind::Conv { filters, kernel, .. } => {
                let c_in = self.shapes[l.parents[0]].0;
                filters * c_in * kernel * kernel
            }
            LayerKind::BatchNorm => 2 * self.shapes[id].0,
            LayerKind::Fc { out_features } => {
                let (c, h, w) = self.shapes[l.parents[0]];
                out_features * c * h * w + out_features
            }
            _ => 0,
        }
    }

    /// Total learnable parameter count.
    pub fn param_count(&self) -> usize {
        self.param_elems().iter().sum()
    }

    /// Longest path (by `weight(layer)`) from any source to any sink,
    /// as a list of layer ids. Used by the strategy optimizer's
    /// branching-network heuristic (§V-C): optimize the heaviest chain
    /// first. `avoid` marks already-used layers: they contribute no
    /// weight and a small negative penalty, implementing the paper's
    /// "next longest path that contains as few of the already-used
    /// layers as possible".
    pub fn longest_path(&self, weight: impl Fn(LayerId) -> f64, avoid: &[bool]) -> Vec<LayerId> {
        let n = self.layers.len();
        assert_eq!(avoid.len(), n);
        // Ties between paths of equal weight are broken toward fewer
        // avoided layers by this penalty; it is orders of magnitude below
        // any real layer cost so it never outweighs actual work.
        const AVOID_PENALTY: f64 = -1e-9;
        // dp[i] = best path ending at i.
        let mut best: Vec<f64> = vec![0.0; n];
        let mut pred: Vec<Option<LayerId>> = vec![None; n];
        for i in 0..n {
            let own = if avoid[i] { AVOID_PENALTY } else { weight(i) };
            let (p_best, p_pred) = self.layers[i]
                .parents
                .iter()
                .map(|&p| (best[p], Some(p)))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap_or((0.0, None));
            best[i] = p_best + own;
            pred[i] = p_pred;
        }
        // Trace back from the best sink (prefer actual sinks).
        let children = self.children();
        let end = (0..n)
            .filter(|&i| children[i].is_empty())
            .max_by(|&a, &b| best[a].total_cmp(&best[b]))
            .unwrap_or(n - 1);
        let mut path = vec![end];
        while let Some(p) = pred[*path.last().unwrap()] {
            path.push(p);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_block() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let input = net.input("data", 4, 8, 8);
        let a = net.conv("conv_a", input, 4, 3, 1, 1);
        let bn = net.batchnorm("bn_a", a);
        let r = net.relu("relu_a", bn);
        let b = net.conv("conv_b", r, 4, 3, 1, 1);
        let join = net.add_join("add", &[b, input]);
        let out = net.relu("relu_out", join);
        let gap = net.global_avg_pool("gap", out);
        let fc = net.fc("fc", gap, 10);
        net.loss("loss", fc);
        net
    }

    #[test]
    fn builder_and_queries() {
        let net = residual_block();
        assert_eq!(net.len(), 10);
        assert_eq!(net.find("conv_b"), Some(4));
        let shapes = net.shapes();
        assert_eq!(shapes[net.find("data").unwrap()], (4, 8, 8));
        assert_eq!(shapes[net.find("add").unwrap()], (4, 8, 8));
        assert_eq!(shapes[net.find("gap").unwrap()], (4, 1, 1));
        assert_eq!(shapes[net.find("fc").unwrap()], (10, 1, 1));
        // Children of input: conv_a and the residual join.
        let ch = net.children();
        assert_eq!(ch[0], vec![1, 5]);
    }

    #[test]
    fn param_count_matches_hand_computation() {
        let net = residual_block();
        // conv_a: 4·4·9 = 144; bn_a: 8; conv_b: 144; fc: 10·4 + 10 = 50.
        assert_eq!(net.param_count(), 144 + 8 + 144 + 50);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_names_rejected() {
        let mut net = NetworkSpec::new();
        let i = net.input("x", 1, 4, 4);
        net.relu("r", i);
        net.relu("r", i);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_references_rejected() {
        let mut net = NetworkSpec::new();
        net.add("bad", LayerKind::Relu, &[3]);
    }

    #[test]
    fn longest_path_takes_the_heavy_branch() {
        let net = residual_block();
        // Weight convolutions heavily; the path must go through both convs,
        // not the residual shortcut.
        let w = |id: LayerId| {
            if matches!(net.layer(id).kind, LayerKind::Conv { .. }) {
                10.0
            } else {
                1.0
            }
        };
        let avoid = vec![false; net.len()];
        let path = net.longest_path(w, &avoid);
        let names: Vec<_> = path.iter().map(|&i| net.layer(i).name.as_str()).collect();
        assert!(names.contains(&"conv_a") && names.contains(&"conv_b"), "path {names:?}");
        assert_eq!(*names.last().unwrap(), "loss");
        assert_eq!(names[0], "data");
    }

    #[test]
    fn longest_path_avoids_marked_layers() {
        let net = residual_block();
        let mut avoid = vec![false; net.len()];
        // Mark the whole conv branch as already used: avoided layers carry
        // no weight, so the branch contributes nothing beyond the shared
        // trunk and the shortcut path (fewer avoided nodes) wins the tie.
        for name in ["conv_a", "bn_a", "relu_a", "conv_b"] {
            avoid[net.find(name).unwrap()] = true;
        }
        let path = net.longest_path(|_| 1.0, &avoid);
        let names: Vec<_> = path.iter().map(|&i| net.layer(i).name.as_str()).collect();
        assert!(!names.contains(&"conv_a"), "path should avoid conv_a: {names:?}");
        assert_eq!(names[0], "data");
        assert_eq!(*names.last().unwrap(), "loss");
    }
}
