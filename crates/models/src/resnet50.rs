//! ResNet-50 (He et al., CVPR 2016) in Caffe layer naming, as used by
//! the paper's ImageNet-1K evaluation (§VI).
//!
//! The paper runs a "fully-convolutional ResNet-50"; the trunk below is
//! the standard bottleneck architecture (conv1 → pool1 → 16 bottleneck
//! blocks in stages res2–res5) with a global-average-pool + FC head.
//! Layer names follow the Caffe convention so the microbenchmark layers
//! of Fig. 2 resolve by name: `conv1` and `res3b_branch2a`.

use fg_nn::{LayerId, NetworkSpec};

/// ImageNet input resolution.
const IMAGENET_HW: usize = 224;
/// ImageNet class count.
const IMAGENET_CLASSES: usize = 1000;

/// Stage description: (name prefix, blocks, mid channels, out channels).
const STAGES: [(&str, usize, usize, usize); 4] =
    [("res2", 3, 64, 256), ("res3", 4, 128, 512), ("res4", 6, 256, 1024), ("res5", 3, 512, 2048)];

/// Build ResNet-50 for ImageNet classification.
pub fn resnet50() -> NetworkSpec {
    resnet50_with(IMAGENET_HW, IMAGENET_CLASSES)
}

/// Build a ResNet-50 variant with custom input resolution / class count
/// (used by scaled-down tests).
pub fn resnet50_with(hw: usize, classes: usize) -> NetworkSpec {
    let mut net = NetworkSpec::new();
    let data = net.input("data", 3, hw, hw);
    let conv1 = net.conv("conv1", data, 64, 7, 2, 3);
    let bn1 = net.batchnorm("bn_conv1", conv1);
    let relu1 = net.relu("conv1_relu", bn1);
    let mut prev = net.maxpool("pool1", relu1, 3, 2, 1);

    for (stage_idx, (prefix, blocks, mid, out)) in STAGES.iter().enumerate() {
        for b in 0..*blocks {
            // Caffe letters: res2a, res2b, res2c, … res4a..res4f.
            let letter = (b'a' + b as u8) as char;
            let name = format!("{prefix}{letter}");
            // First block of each stage (except res2) downsamples.
            let stride = if b == 0 && stage_idx > 0 { 2 } else { 1 };
            let project = b == 0;
            prev = bottleneck(&mut net, &name, prev, *mid, *out, stride, project);
        }
    }

    let gap = net.global_avg_pool("pool5", prev);
    let fc = net.fc("fc1000", gap, classes);
    net.loss("prob", fc);
    net
}

/// One bottleneck block: 1×1 (stride) → 3×3 → 1×1, with an identity or
/// projection (`branch1`) shortcut. Returns the output layer id.
fn bottleneck(
    net: &mut NetworkSpec,
    name: &str,
    input: LayerId,
    mid: usize,
    out: usize,
    stride: usize,
    project: bool,
) -> LayerId {
    // Caffe ResNet puts the stride on branch2a (1×1) and branch1.
    let c2a = net.conv(&format!("{name}_branch2a"), input, mid, 1, stride, 0);
    let b2a = net.batchnorm(&format!("bn{}_branch2a", &name[3..]), c2a);
    let r2a = net.relu(&format!("{name}_branch2a_relu"), b2a);
    let c2b = net.conv(&format!("{name}_branch2b"), r2a, mid, 3, 1, 1);
    let b2b = net.batchnorm(&format!("bn{}_branch2b", &name[3..]), c2b);
    let r2b = net.relu(&format!("{name}_branch2b_relu"), b2b);
    let c2c = net.conv(&format!("{name}_branch2c"), r2b, out, 1, 1, 0);
    let b2c = net.batchnorm(&format!("bn{}_branch2c", &name[3..]), c2c);
    let shortcut = if project {
        let c1 = net.conv(&format!("{name}_branch1"), input, out, 1, stride, 0);
        net.batchnorm(&format!("bn{}_branch1", &name[3..]), c1)
    } else {
        input
    };
    let add = net.add_join(name, &[b2c, shortcut]);
    net.relu(&format!("{name}_relu"), add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_nn::LayerKind;

    #[test]
    fn has_53_convolutions_and_correct_param_count() {
        let net = resnet50();
        let convs =
            net.layers().iter().filter(|l| matches!(l.kind, LayerKind::Conv { .. })).count();
        // conv1 + 16 blocks × 3 + 4 projection shortcuts = 53.
        assert_eq!(convs, 53);
        // ResNet-50 has ~25.5M parameters.
        let params = net.param_count();
        assert!(
            (25_000_000..26_100_000).contains(&params),
            "parameter count {params} outside ResNet-50 range"
        );
    }

    #[test]
    fn paper_fig2_layers_resolve_with_published_shapes() {
        let net = resnet50();
        let shapes = net.shapes();
        // conv1: C=3 H=224 W=224 F=64 K=7 P=3 S=2 (paper Fig. 2 caption).
        let conv1 = net.find("conv1").expect("conv1 exists");
        let parent = net.layer(conv1).parents[0];
        assert_eq!(shapes[parent], (3, 224, 224));
        match net.layer(conv1).kind {
            LayerKind::Conv { filters, kernel, stride, pad, .. } => {
                assert_eq!((filters, kernel, stride, pad), (64, 7, 2, 3));
            }
            _ => panic!("conv1 is a conv"),
        }
        assert_eq!(shapes[conv1], (64, 112, 112));
        // res3b_branch2a: C=512 H=28 W=28 F=128 K=1 P=0 S=1.
        let l = net.find("res3b_branch2a").expect("res3b_branch2a exists");
        let parent = net.layer(l).parents[0];
        assert_eq!(shapes[parent], (512, 28, 28));
        match net.layer(l).kind {
            LayerKind::Conv { filters, kernel, stride, pad, .. } => {
                assert_eq!((filters, kernel, stride, pad), (128, 1, 1, 0));
            }
            _ => panic!("res3b_branch2a is a conv"),
        }
    }

    #[test]
    fn stage_output_shapes_match_resnet() {
        let net = resnet50();
        let shapes = net.shapes();
        assert_eq!(shapes[net.find("pool1").unwrap()], (64, 56, 56));
        assert_eq!(shapes[net.find("res2c_relu").unwrap()], (256, 56, 56));
        assert_eq!(shapes[net.find("res3d_relu").unwrap()], (512, 28, 28));
        assert_eq!(shapes[net.find("res4f_relu").unwrap()], (1024, 14, 14));
        assert_eq!(shapes[net.find("res5c_relu").unwrap()], (2048, 7, 7));
        assert_eq!(shapes[net.find("fc1000").unwrap()], (1000, 1, 1));
    }

    #[test]
    fn scaled_down_variant_trains_end_to_end() {
        use fg_kernels::loss::Labels;
        use fg_nn::Network;
        use fg_tensor::{Shape4, Tensor};
        // 32×32 inputs, 4 classes: just check forward/backward run and
        // produce finite loss on the full 50-layer graph.
        let spec = resnet50_with(32, 4);
        let net = Network::init(spec, 42);
        let x = Tensor::from_fn(Shape4::new(2, 3, 32, 32), |n, c, h, w| {
            ((n + c + h + w) % 7) as f32 * 0.1
        });
        let labels = Labels::per_sample(vec![0, 3]);
        let (loss, grads) = net.loss_and_grads(&x, &labels);
        assert!(loss.is_finite() && loss > 0.0);
        assert!(grads.iter().all(|g| g.to_flat().iter().all(|v| v.is_finite())));
    }
}
