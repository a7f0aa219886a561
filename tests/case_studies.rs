//! Integration tests reproducing the paper's motivating examples and case
//! studies (Figs. 1, 3, 9, 12) end-to-end: mini-C source → PIR → PATA →
//! validated reports.

use pata::core::{AnalysisConfig, AnalysisSession, BugKind};

fn analyze(path: &str, src: &str) -> pata::core::SessionOutcome {
    let module = pata::cc::compile_one(path, src).expect("case study compiles");
    AnalysisSession::new(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::default()
    })
    .analyze_module(module)
}

fn analyze_na(path: &str, src: &str) -> pata::core::SessionOutcome {
    let module = pata::cc::compile_one(path, src).expect("case study compiles");
    AnalysisSession::new(AnalysisConfig {
        threads: 1,
        ..AnalysisConfig::without_alias()
    })
    .analyze_module(module)
}

/// Fig. 1 — Linux s5p_mfc_probe: `dev->plat_dev = pdev; if (!dev->plat_dev)
/// { dev_err(&pdev->dev, …) }` — the error branch itself dereferences the
/// pointer that was just found NULL, through an alias created one line
/// earlier. The probe is only reachable through a function-pointer
/// registration (module interface function).
#[test]
fn fig1_s5p_mfc_probe() {
    let out = analyze(
        "drivers/media/s5p_mfc.c",
        r#"
        struct platform_device { int *dev; };
        struct s5p_dev { struct platform_device *plat_dev; };

        static int s5p_mfc_probe(struct s5p_dev *dev, struct platform_device *pdev) {
            dev->plat_dev = pdev;            /* create alias */
            if (!dev->plat_dev) {            /* pdev can be NULL */
                dev_err(pdev->dev);          /* NPD: pdev aliases dev->plat_dev */
                return -19;
            }
            return 0;
        }

        static struct platform_driver s5p_mfc_driver = { .probe = s5p_mfc_probe };
        "#,
    );
    let npd: Vec<_> = out
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::NullPointerDeref && r.function == "s5p_mfc_probe")
        .collect();
    assert!(
        !npd.is_empty(),
        "Fig. 1 bug must be found: {:?}",
        out.report.reports
    );
}

/// Fig. 1 under PATA-NA: the alias between `pdev` and `dev->plat_dev` is
/// exactly what the alias-unaware variant cannot see.
#[test]
fn fig1_needs_alias_awareness() {
    let out = analyze_na(
        "drivers/media/s5p_mfc.c",
        r#"
        struct platform_device { int *dev; };
        struct s5p_dev { struct platform_device *plat_dev; };
        static int s5p_mfc_probe(struct s5p_dev *dev, struct platform_device *pdev) {
            dev->plat_dev = pdev;
            if (!dev->plat_dev) {
                dev_err(pdev->dev);
                return -19;
            }
            return 0;
        }
        static struct platform_driver s5p_mfc_driver = { .probe = s5p_mfc_probe };
        "#,
    );
    assert!(
        !out.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref),
        "PATA-NA cannot connect pdev with dev->plat_dev: {:?}",
        out.report.reports
    );
}

/// Fig. 3 — the Zephyr friend_set bug (see also examples/zephyr_friend_set).
#[test]
fn fig3_zephyr_friend_set() {
    let out = analyze(
        "subsys/bluetooth/cfg_srv.c",
        r#"
        struct bt_mesh_cfg_srv { int frnd; };
        struct bt_mesh_model { struct bt_mesh_cfg_srv *user_data; };
        static void send_friend_status(struct bt_mesh_model *model) {
            struct bt_mesh_cfg_srv *cfg = model->user_data;
            net_buf_simple_add_u8(cfg->frnd);
        }
        static void friend_set(struct bt_mesh_model *model) {
            struct bt_mesh_cfg_srv *cfg = model->user_data;
            if (!cfg) {
                goto send_status;
            }
            cfg->frnd = 1;
            return;
        send_status:
            send_friend_status(model);
        }
        static struct bt_mesh_model_op op = { .set = friend_set };
        "#,
    );
    assert!(
        out.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref && r.function == "send_friend_status"),
        "{:?}",
        out.report.reports
    );
}

/// Fig. 9 — the infeasible-path candidate that alias-aware constraint
/// merging refutes: `p->f == 0` on the NULL path contradicts `t->f != 0`
/// guarding the dereference, because p and t alias.
#[test]
fn fig9_infeasible_path_dropped() {
    let src = r#"
        struct s { int f; };
        static void func(struct s *p, int *q) {
            struct s *t;
            if (q == NULL) {
                p->f = 0;
            }
            t = p;
            if (t->f != 0) {
                *q = *q + 1;
            }
        }
        static struct ops o = { .run = func };
    "#;
    let pata = analyze("lib/fig9.c", src);
    assert!(
        !pata
            .report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref),
        "PATA must drop the infeasible candidate: {:?}",
        pata.report.reports
    );
    assert!(pata.stats.false_bugs_dropped >= 1, "{:?}", pata.stats);

    // The same program under PATA-NA: separate SMT symbols for p->f and
    // t->f make the path look feasible — a false positive.
    let na = analyze_na("lib/fig9.c", src);
    assert!(
        na.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref),
        "PATA-NA reports the Fig. 9 false positive: {:?}",
        na.report.reports
    );
}

/// Fig. 12(a) — Linux MCDE: `mcde_dsi_bind` checks `d->mdsi`, then calls
/// `mcde_dsi_start` which dereferences it repeatedly.
#[test]
fn fig12a_linux_mcde() {
    let out = analyze(
        "drivers/gpu/drm/mcde/mcde_dsi.c",
        r#"
        struct mipi_dsi { int mode_flags; int lanes; };
        struct mcde_dsi { struct mipi_dsi *mdsi; int val; };
        static void mcde_dsi_start(struct mcde_dsi *d) {
            if (d->mdsi->mode_flags > 0) {
                d->val = 1;
            }
            if (d->mdsi->lanes == 2) {
                d->val = 2;
            }
        }
        static int mcde_dsi_bind(struct mcde_dsi *d) {
            if (d->mdsi) {
                mcde_dsi_attach(d);
            }
            mcde_dsi_start(d);
            return 0;
        }
        static struct component_ops ops = { .bind = mcde_dsi_bind };
        "#,
    );
    let sites: Vec<u32> = out
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::NullPointerDeref && r.function == "mcde_dsi_start")
        .map(|r| r.site_line)
        .collect();
    assert!(
        sites.len() >= 2,
        "each dereference is a distinct bug: {:?}",
        out.report.reports
    );
}

/// Fig. 12(b) — Zephyr context_sendto: `dst_addr` can be NULL when msghdr
/// is non-NULL; the cast alias `ll_addr` is dereferenced later.
#[test]
fn fig12b_zephyr_context_sendto() {
    let out = analyze(
        "subsys/net/ip/net_context.c",
        r#"
        struct sockaddr { int sll_ifindex; };
        static int context_sendto(struct sockaddr *dst_addr, int *msghdr) {
            if (dst_addr == NULL && msghdr == NULL) {
                return -89;
            }
            struct sockaddr *ll_addr = dst_addr;          /* alias */
            if (ll_addr->sll_ifindex < 0) {               /* unsafe deref! */
                return -22;
            }
            return 0;
        }
        static struct net_ops ops = { .sendto = context_sendto };
        "#,
    );
    assert!(
        out.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::NullPointerDeref && r.function == "context_sendto"),
        "{:?}",
        out.report.reports
    );
}

/// Fig. 12(c) — RIOT make_message: leak on the vsnprintf error path.
#[test]
fn fig12c_riot_make_message() {
    let out = analyze(
        "cpu/native/syscall.c",
        r#"
        static int make_message(int size) {
            int *message = malloc(size);
            if (message == NULL) {
                return -1;
            }
            int n = vsnprintf_model(size);
            if (n < 0) {
                return -1;            /* no free! */
            }
            free(message);
            return n;
        }
        static struct sys_ops ops = { .fmt = make_message };
        "#,
    );
    let ml: Vec<_> = out
        .report
        .reports
        .iter()
        .filter(|r| r.kind == BugKind::MemoryLeak)
        .collect();
    assert_eq!(ml.len(), 1, "{:?}", out.report.reports);
    assert_eq!(ml[0].function, "make_message");
}

/// Fig. 12(d) — TencentOS pthread_create: the task-control block lives in
/// uninitialized heap memory; a field is read three calls deep.
#[test]
fn fig12d_tencent_pthread_create() {
    let out = analyze(
        "osal/posix/pthread.c",
        r#"
        struct knl_obj { int type; };
        struct k_task { struct knl_obj knl_obj; int prio; };
        struct pthread_ctl { struct k_task ktask; };

        static int knl_object_verify(struct knl_obj *obj, int expected) {
            return obj->type == expected;                 /* unsafe access! */
        }
        static int tos_task_create(struct k_task *task) {
            return knl_object_verify(&task->knl_obj, 1);
        }
        static int pthread_create(int stack_size) {
            int *stackaddr = tos_mmheap_alloc(stack_size);   /* uninitialized */
            struct pthread_ctl *the_ctl = (struct pthread_ctl *)stackaddr;
            int kerr = tos_task_create(&the_ctl->ktask);
            register_thread(stackaddr);
            return kerr;
        }
        static struct posix_ops ops = { .create = pthread_create };
        "#,
    );
    assert!(
        out.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::UninitVarAccess && r.function == "knl_object_verify"),
        "the uninitialized access surfaces in knl_object_verify: {:?}",
        out.report.reports
    );
}

/// The developers' fix for Fig. 12(d): memset after allocation — the
/// report must disappear.
#[test]
fn fig12d_fix_with_memset() {
    let out = analyze(
        "osal/posix/pthread_fixed.c",
        r#"
        struct knl_obj { int type; };
        struct k_task { struct knl_obj knl_obj; int prio; };
        struct pthread_ctl { struct k_task ktask; };
        static int knl_object_verify(struct knl_obj *obj, int expected) {
            return obj->type == expected;
        }
        static int tos_task_create(struct k_task *task) {
            return knl_object_verify(&task->knl_obj, 1);
        }
        static int pthread_create(int stack_size) {
            int *stackaddr = tos_mmheap_alloc(stack_size);
            memset(stackaddr, 0, stack_size);
            struct pthread_ctl *the_ctl = (struct pthread_ctl *)stackaddr;
            int kerr = tos_task_create(&the_ctl->ktask);
            register_thread(stackaddr);
            return kerr;
        }
        static struct posix_ops ops = { .create = pthread_create };
        "#,
    );
    assert!(
        !out.report
            .reports
            .iter()
            .any(|r| r.kind == BugKind::UninitVarAccess),
        "memset initializes the storage: {:?}",
        out.report.reports
    );
}
