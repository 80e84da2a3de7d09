//! # fg-models — the networks the paper evaluates
//!
//! * [`resnet50()`] — ResNet-50 with Caffe layer names, for the
//!   ImageNet-1K strong-scaling study (Table III) and the Fig. 2 layer
//!   microbenchmarks (`conv1`, `res3b_branch2a`);
//! * [`mesh`] — the 1K/2K mesh-tangling semantic-segmentation models
//!   (Tables I–II, Figs. 3–4), VGG-style conv–BN–ReLU blocks pinned to
//!   the published `conv1_1`/`conv6_1` shapes.

pub mod mesh;
pub mod resnet50;

pub use mesh::{mesh_model, mesh_model_custom, mesh_model_scaled, MeshSize, MESH_CHANNELS};
pub use resnet50::{resnet50, resnet50_with};

#[cfg(test)]
mod tests {
    use super::*;
    use fg_nn::init_params;

    /// `NetworkSpec::param_elems` is shape arithmetic standing in for a
    /// sampled parameter set; it must size every layer exactly as
    /// `init_params` does on the networks the paper evaluates.
    #[test]
    fn param_elems_match_initialised_lengths() {
        for (name, spec) in [
            ("mesh-1K", mesh_model(MeshSize::OneK)),
            ("mesh-2K", mesh_model(MeshSize::TwoK)),
            ("resnet50", resnet50()),
        ] {
            let elems = spec.param_elems();
            let params = init_params(&spec, 3);
            assert_eq!(elems.len(), params.len(), "{name}");
            for (id, (e, p)) in elems.iter().zip(&params).enumerate() {
                assert_eq!(*e, p.len(), "{name} layer {id} ({})", spec.layer(id).name);
            }
            assert_eq!(spec.param_count(), elems.iter().sum::<usize>(), "{name}");
        }
    }
}
