//! One module per group of paper artefacts. Every public function
//! reproduces one table or figure and prints paper-vs-measured rows.

pub mod ext;
pub mod marginals;
pub mod model_cmp;
pub mod queueing;
pub mod tables;
pub mod temporal;

use crate::Ctx;

/// All experiment ids in paper order.
pub const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "ext",
];

/// Dispatches one experiment by id. Returns false for unknown ids.
pub fn run(ctx: &Ctx, id: &str) -> bool {
    match id {
        "table1" => tables::table1(ctx),
        "table2" => tables::table2(ctx),
        "table3" => tables::table3(ctx),
        "fig1" => temporal::fig1(ctx),
        "fig2" => temporal::fig2(ctx),
        "fig3" => marginals::fig3(ctx),
        "fig4" => marginals::fig4(ctx),
        "fig5" => marginals::fig5(ctx),
        "fig6" => marginals::fig6(ctx),
        "fig7" => temporal::fig7(ctx),
        "fig8" => temporal::fig8(ctx),
        "fig9" => temporal::fig9(ctx),
        "fig10" => temporal::fig10(ctx),
        "fig11" => temporal::fig11(ctx),
        "fig12" => temporal::fig12(ctx),
        "fig13" => queueing::fig13(ctx),
        "fig14" => queueing::fig14(ctx),
        "fig15" => queueing::fig15(ctx),
        "fig16" => model_cmp::fig16(ctx),
        "fig17" => queueing::fig17(ctx),
        "ext" => ext::ext(ctx),
        _ => return false,
    }
    true
}
