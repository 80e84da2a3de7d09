//! The build's instruction-set baseline. `.cargo/config.toml` compiles
//! every crate for x86-64-v3, so `fg-kernels::conv`'s 8-column tiles
//! are one 256-bit register each; a build that lost the flag still
//! passes every bitwise test (no summation order depends on the lane
//! width) and is only slower, so this test is what notices.

#[test]
fn built_for_the_x86_64_v3_baseline() {
    if !cfg!(target_arch = "x86_64") {
        return;
    }
    let missing: Vec<&str> =
        [("avx2", cfg!(target_feature = "avx2")), ("fma", cfg!(target_feature = "fma"))]
            .into_iter()
            .filter(|&(_, enabled)| !enabled)
            .map(|(feature, _)| feature)
            .collect();
    assert!(
        missing.is_empty(),
        "this build lacks {missing:?}, so it does not target x86-64-v3: `.cargo/config.toml` \
         at the repo root sets `-C target-cpu=x86-64-v3`, and an exported RUSTFLAGS replaces \
         the config's flags instead of adding to them — unset it, or append \
         `-C target-cpu=x86-64-v3` to it"
    );
}
