//! Clean fixture: every rule satisfied. Analyzed as
//! `crates/mpi/src/clean.rs` so all crate-scoped rules are in scope.

pub fn tidy(reg: &Registry, ctx: &Ctx) {
    let st = reg.state.lock();
    drop(st);
    block_current(ctx);
}
