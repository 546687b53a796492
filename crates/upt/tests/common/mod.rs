//! Shared by the UPT oracles: the UPT side of "prepare the next release".

use jvolve::Update;
use jvolve_apps::GuestApp;
use jvolve_upt::{prepare_classes, UptOptions};

/// Prepares `from -> from + 1` of `app` automatically. The Figure 3
/// customization for emailserver 1.3.2 is supplied as a *per-class*
/// override (rather than a whole replacement source); `figure3` is that
/// override's method pair, so a caller can instrument it.
pub fn upt_prepare_with(app: &dyn GuestApp, from: usize, figure3: &str) -> Update {
    let versions = app.versions();
    let old = versions[from].compile();
    let new = versions[from + 1].compile();
    let mut opts = UptOptions::with_prefix(versions[from + 1].prefix);
    if app.name() == "emailserver" && versions[from + 1].label == "1.3.2" {
        opts.overrides
            .insert("User".to_string(), figure3.to_string());
    }
    prepare_classes(&old, &new, &opts)
        .unwrap_or_else(|e| {
            panic!(
                "{}: UPT preparation of {from}->{} failed: {e}",
                app.name(),
                from + 1
            )
        })
        .update
}
