//! Rewrites `src/calvin_lu.rs`, the Calvin-cycle model's static-pivot LU
//! compiled to straight-line code, from the model's reactions as they are
//! now:
//!
//! ```text
//! cargo run -p pathway-photosynthesis --example emit_calvin_lu
//! ```
//!
//! `tests/compiled_lu.rs` fails with this command whenever the committed
//! file differs from what the reactions emit.

use pathway_photosynthesis::CalvinCycleOde;

fn main() -> std::io::Result<()> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/src/calvin_lu.rs");
    std::fs::write(path, CalvinCycleOde::emit_compiled_lu())?;
    println!("wrote {path}");
    Ok(())
}
