//! The `--metrics` export: telemetry registries and per-app
//! injection-outcome histograms, both rendered through [`Json`].
//!
//! Telemetry counters and spans (from [`ispy_telemetry`]) cover *how much
//! work* each pipeline phase did; the outcome histograms cover *what the
//! injections achieved*: for every app whose [`Comparison`](crate::Comparison)
//! the session computed, each planned injection is classified by its
//! dominant runtime outcome and the classes are counted into a histogram.

use crate::json::Json;
use crate::session::Session;
use ispy_sim::{InjectionOutcome, SimResult};
use ispy_telemetry::Telemetry;
use std::fmt::Write as _;

/// Renders one run's metrics as canonical `key=value` lines under an app
/// `name` header — the textual fingerprint `repro replay` prints and the
/// record/replay golden tests compare byte-for-byte. Every raw counter is
/// included; derived `f64` metrics use Rust's shortest-round-trip
/// formatting, so equal results render to equal bytes and vice versa.
pub fn result_lines(name: &str, r: &SimResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "[{name}]");
    for (key, v) in [
        ("cycles", r.cycles),
        ("instrs", r.instrs),
        ("base_instrs", r.base_instrs),
        ("blocks", r.blocks),
        ("i_accesses", r.i_accesses),
        ("i_misses", r.i_misses),
        ("i_stall_cycles", r.i_stall_cycles),
        ("d_accesses", r.d_accesses),
        ("d_misses", r.d_misses),
        ("d_stall_cycles", r.d_stall_cycles),
        ("pf_ops_executed", r.pf_ops_executed),
        ("pf_ops_fired", r.pf_ops_fired),
        ("pf_ops_suppressed", r.pf_ops_suppressed),
        ("pf_lines_issued", r.pf_lines_issued),
        ("pf_lines_resident", r.pf_lines_resident),
        ("pf_useful", r.pf_useful),
        ("pf_late", r.pf_late),
        ("pf_evicted_unused", r.pf_evicted_unused),
    ] {
        let _ = writeln!(out, "{key}={v}");
    }
    for (key, v) in [
        ("mpki", r.mpki()),
        ("ipc", r.ipc()),
        ("frontend_bound", r.frontend_bound()),
        ("accuracy", r.accuracy()),
    ] {
        let _ = writeln!(out, "{key}={v:?}");
    }
    out
}

/// Dominant-outcome classes, in the order they render.
const CLASSES: [&str; 6] =
    ["useful", "late_only", "wasted", "always_suppressed", "never_executed", "pending"];

/// Classifies one injection by what dominated its runtime behaviour.
fn classify(o: &InjectionOutcome) -> &'static str {
    if o.executed == 0 {
        "never_executed"
    } else if o.fired == 0 {
        "always_suppressed"
    } else if o.useful > 0 {
        "useful"
    } else if o.late > 0 {
        "late_only"
    } else if o.evicted_unused > 0 {
        "wasted"
    } else {
        // Fired, but no line settled (still resident or in flight at exit).
        "pending"
    }
}

/// Renders a telemetry registry as pretty JSON: `{"counters": {"<name>":
/// n}, "spans": {"<name>": {"count": n, "total_ms": x}}}`, names sorted,
/// `total_ms` with three decimals.
pub fn telemetry_summary(tele: &Telemetry) -> String {
    let counters = tele.counters().into_iter().map(|(name, n)| (name, Json::U64(n))).collect();
    let spans = tele
        .spans()
        .into_iter()
        .map(|(name, s)| {
            let stat = vec![
                ("count".to_string(), Json::U64(s.count)),
                ("total_ms".to_string(), Json::Fixed(s.total_ms(), 3)),
            ];
            (name, Json::Obj(stat))
        })
        .collect();
    Json::Obj(vec![
        ("counters".to_string(), Json::Obj(counters)),
        ("spans".to_string(), Json::Obj(spans)),
    ])
    .to_pretty()
}

/// Renders per-app injection-outcome histograms as pretty JSON:
/// `{"apps": {"<name>": {"injections": n, "totals": {...}, "histogram":
/// {...}}}}`. Apps are reported in session order; each app's comparison is
/// computed (and cached) on demand.
pub fn outcome_summary(session: &Session) -> String {
    let apps = (0..session.apps().len())
        .map(|i| {
            let cmp = session.comparison(i);
            let ledger = &cmp.ispy_outcomes;
            let total = |key: &str, f: fn(&InjectionOutcome) -> u64| {
                (key.to_string(), Json::U64(ledger.total(f)))
            };
            let totals = vec![
                total("executed", |o| o.executed),
                total("fired", |o| o.fired),
                total("suppressed", |o| o.suppressed),
                total("lines_issued", |o| o.lines_issued),
                total("lines_resident", |o| o.lines_resident),
                total("useful", |o| o.useful),
                total("late", |o| o.late),
                total("evicted_unused", |o| o.evicted_unused),
            ];
            let histogram = CLASSES
                .iter()
                .map(|class| {
                    let n = ledger.per_injection.iter().filter(|o| classify(o) == *class).count();
                    (class.to_string(), Json::U64(n as u64))
                })
                .collect();
            let app = vec![
                ("injections".to_string(), Json::U64(ledger.per_injection.len() as u64)),
                ("totals".to_string(), Json::Obj(totals)),
                ("histogram".to_string(), Json::Obj(histogram)),
            ];
            (session.apps()[i].name().to_string(), Json::Obj(app))
        })
        .collect();
    Json::Obj(vec![("apps".to_string(), Json::Obj(apps))]).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Scale;
    use ispy_trace::apps;

    #[test]
    fn classification_covers_the_outcome_space() {
        let mut o = InjectionOutcome::default();
        assert_eq!(classify(&o), "never_executed");
        o.executed = 2;
        o.suppressed = 2;
        assert_eq!(classify(&o), "always_suppressed");
        o.fired = 1;
        assert_eq!(classify(&o), "pending");
        o.evicted_unused = 1;
        assert_eq!(classify(&o), "wasted");
        o.late = 1;
        assert_eq!(classify(&o), "late_only");
        o.useful = 1;
        assert_eq!(classify(&o), "useful");
    }

    #[test]
    fn telemetry_keys_render_sorted() {
        let t = Telemetry::new();
        t.add("z.last", 1);
        t.add("a.first", 2);
        drop(t.span("phase"));
        let j = telemetry_summary(&t);
        assert!(j.contains("\"phase\": {\n      \"count\": 1,\n      \"total_ms\": "));
        let a = j.find("a.first").unwrap();
        let z = j.find("z.last").unwrap();
        assert!(a < z, "keys must render in sorted order");
    }

    #[test]
    fn telemetry_includes_span_wall_time() {
        let t = Telemetry::new();
        drop(t.span("p"));
        let j = telemetry_summary(&t);
        assert!(j.contains("\"count\": 1"));
        assert!(j.contains("total_ms"));
    }

    #[test]
    fn empty_registry_renders_empty_objects() {
        assert_eq!(
            telemetry_summary(&Telemetry::new()),
            "{\n  \"counters\": {},\n  \"spans\": {}\n}\n"
        );
    }

    #[test]
    fn telemetry_escapes_names() {
        let t = Telemetry::new();
        t.add("weird\"name", 1);
        assert!(telemetry_summary(&t).contains("weird\\\"name"));
    }

    #[test]
    fn telemetry_counters_print_exactly() {
        let t = Telemetry::new();
        t.add("max", u64::MAX);
        assert!(telemetry_summary(&t).contains("\"max\": 18446744073709551615"));
    }

    #[test]
    fn summary_renders_every_app_and_class() {
        let s = Session::with_apps(Scale::test(), vec![apps::cassandra()]);
        let j = outcome_summary(&s);
        assert!(j.contains("\"cassandra\""));
        assert!(j.contains("\"injections\""));
        for class in CLASSES {
            assert!(j.contains(class), "missing class {class}");
        }
        // Histogram classes partition the injections.
        let cmp = s.comparison(0);
        let n = cmp.ispy_outcomes.per_injection.len();
        let counted: usize = CLASSES
            .iter()
            .map(|c| cmp.ispy_outcomes.per_injection.iter().filter(|o| classify(o) == *c).count())
            .sum();
        assert_eq!(counted, n);
    }
}
