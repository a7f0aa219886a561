//! The paper's Fig. 12(a) case study: four null-pointer dereferences in
//! the Linux MCDE display driver (`drivers/gpu/drm/mcde/mcde_dsi.c`).
//!
//! `mcde_dsi_bind` checks `d->mdsi` against NULL (so it *can* be NULL) and
//! later calls `mcde_dsi_start`, which dereferences `d->mdsi` four times.
//! The developers' fix drops the `mcde_dsi_start` call when `d->mdsi` is
//! NULL — re-run this example after applying the equivalent guard to see
//! all four reports disappear.
//!
//! ```sh
//! cargo run --example linux_mcde
//! ```

use pata::core::{AnalysisConfig, AnalysisSession, BugKind};

const MCDE_DSI: &str = r#"
    struct mipi_dsi { int mode_flags; int lanes; };
    struct mcde_dsi { struct mipi_dsi *mdsi; int val; };

    static void mcde_dsi_start(struct mcde_dsi *d) {
        if (d->mdsi->mode_flags > 0) {       /* unsafe dereference #1 */
            d->val = 1;
        }
        if (d->mdsi->lanes == 2) {           /* unsafe dereference #2 */
            d->val = d->val | 2;
        }
        if (d->mdsi->lanes == 2) {           /* unsafe dereference #3 */
            d->val = d->val | 4;
        }
        if (d->mdsi->lanes == 2) {           /* unsafe dereference #4 */
            d->val = d->val | 8;
        }
    }

    static int mcde_dsi_bind(struct mcde_dsi *d) {
        if (d->mdsi) {                        /* d->mdsi can be NULL */
            mcde_dsi_attach(d);
        }
        mcde_dsi_start(d);                    /* called unconditionally */
        dev_info("initialized MCDE DSI bridge");
        return 0;
    }

    static struct component_ops mcde_dsi_ops = { .bind = mcde_dsi_bind };
"#;

fn main() {
    let module =
        pata::cc::compile_one("drivers/gpu/drm/mcde/mcde_dsi.c", MCDE_DSI).expect("valid mini-C");
    let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(module);

    let npd: Vec<_> = outcome
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::NullPointerDeref && r.function == "mcde_dsi_start")
        .collect();
    println!("Null-pointer dereferences in mcde_dsi_start:");
    for r in &npd {
        println!("  line {}: {}", r.site_line, r.message);
    }
    assert!(
        npd.len() >= 2,
        "PATA reports the distinct d->mdsi dereferences (got {})",
        npd.len()
    );
    println!(
        "\n{} report(s) — the paper's fix guards the mcde_dsi_start call.",
        npd.len()
    );
}
