//! The paper's motivating bug (Fig. 3): a real null-pointer dereference in
//! the Zephyr Bluetooth mesh subsystem (`subsys/bluetooth/cfg_srv.c`),
//! undetected for ~3 years and fixed after PATA reported it.
//!
//! The NULL check happens in `friend_set` on its local `cfg`; the
//! dereference happens in `send_friend_status` on *its* local `cfg`. The
//! two are aliases only because both load the same `model->user_data`
//! field — which PATA's path-based alias analysis tracks across the call,
//! and which defeats points-to analysis (the `model` parameter of a module
//! interface function has an empty points-to set) and intraprocedural
//! pattern matching (two different functions). This example runs both PATA
//! and PATA-NA to show the difference.
//!
//! ```sh
//! cargo run --example zephyr_friend_set
//! ```

use pata::core::{AnalysisConfig, AnalysisSession, BugKind};

const CFG_SRV: &str = r#"
    struct bt_mesh_cfg_srv { int frnd; int relay; };
    struct bt_mesh_model { struct bt_mesh_cfg_srv *user_data; int id; };

    static void send_friend_status(struct bt_mesh_model *model) {
        struct bt_mesh_cfg_srv *cfg = model->user_data;   /* alias */
        net_buf_simple_add_u8(cfg->frnd);                 /* unsafe deref! */
    }

    static void friend_set(struct bt_mesh_model *model) {
        struct bt_mesh_cfg_srv *cfg = model->user_data;   /* alias */
        if (!cfg) {
            bt_warn("no config server");
            goto send_status;
        }
        cfg->frnd = 1;
        return;
    send_status:
        send_friend_status(model);
    }

    static struct bt_mesh_model_op cfg_srv_op = { .set = friend_set };
"#;

fn main() {
    let compile =
        || pata::cc::compile_one("subsys/bluetooth/cfg_srv.c", CFG_SRV).expect("valid mini-C");

    println!("== PATA (path-based alias analysis) ==");
    let outcome = AnalysisSession::new(AnalysisConfig::default()).analyze_module(compile());
    for r in &outcome.report.reports {
        println!("  {r}");
    }
    let found = outcome
        .report
        .reports
        .iter()
        .any(|r| r.kind == BugKind::NullPointerDeref && r.function == "send_friend_status");
    assert!(found, "PATA must find the Fig. 3 bug");
    println!("  -> found the cross-function alias bug\n");

    println!("== PATA-NA (no alias relationships, Table 6) ==");
    let na = AnalysisSession::new(AnalysisConfig::without_alias()).analyze_module(compile());
    let na_found = na
        .report
        .reports
        .iter()
        .any(|r| r.kind == BugKind::NullPointerDeref && r.function == "send_friend_status");
    println!(
        "  {} report(s); cross-function bug found: {}",
        na.report.reports.len(),
        na_found
    );
    assert!(!na_found, "without alias analysis the bug is invisible");
    println!("  -> missed, as the paper's sensitivity study predicts");
}
