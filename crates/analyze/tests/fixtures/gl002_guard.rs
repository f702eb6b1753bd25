//! GL002 fixture: lock guards across fiber yield points.
//! Analyzed as `crates/mpi/src/gl002_guard.rs` so the rule is in scope.

fn bad_hold(reg: &Registry, ctx: &Ctx) {
    let st = reg.state.lock();
    if st.waiting {
        block_current(ctx);
    }
}

fn good_drop(reg: &Registry, ctx: &Ctx) {
    let st = reg.state.lock();
    let ready = st.ready;
    drop(st);
    if !ready {
        block_current(ctx);
    }
}

fn bad_revive(reg: &Registry, ctx: &Ctx) {
    let mut st = reg.state.lock();
    drop(st);
    st = reg.state.lock();
    pump_mailbox(ctx);
}

fn good_scope(reg: &Registry, ctx: &Ctx) {
    {
        let st = reg.state.lock();
        st.note();
    }
    block_current(ctx);
}

fn suppressed_hold(reg: &Registry, ctx: &Ctx) {
    let st = reg.state.lock();
    // greenla-allow: GL002 fixture exercises the suppression path
    abort(&st);
}
