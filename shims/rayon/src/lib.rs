//! Empty stand-in for `rayon`. No code in the workspace uses it: the
//! parallel models in `pga` step their islands and cells in index order
//! on one thread, and `ga::Evaluator::cost_batch` plus those loops are
//! where fork-join parallelism would go. The package stays only because
//! `pga`'s manifest, and so the committed lockfiles, still name it.
