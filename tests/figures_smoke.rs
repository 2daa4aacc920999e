//! Every figure driver renders a non-empty, well-formed table at test scale.

use ispy_harness::report::{speedup, Table};
use ispy_harness::{figures, Scale, Session};

/// A rendered cell as `f64`, without its `%` or `x` suffix.
fn cell_f64(t: &Table, row: usize, col: usize) -> Option<f64> {
    t.rows.get(row)?.get(col)?.trim_end_matches(['%', 'x']).trim().parse().ok()
}

#[test]
fn cell_parsing() {
    let mut t = Table::new("fig0", "demo", &["app", "speedup"]);
    t.row(vec!["cassandra".into(), speedup(1.25)]);
    assert_eq!(cell_f64(&t, 0, 1), Some(1.25));
    assert_eq!(cell_f64(&t, 5, 0), None);
}

#[test]
fn every_figure_renders() {
    let session = Session::new(Scale::test());
    for spec in figures::all() {
        let table = (spec.run)(&session);
        assert_eq!(table.id, spec.id);
        assert!(!table.headers.is_empty(), "{}: no headers", spec.id);
        assert!(!table.rows.is_empty(), "{}: no rows", spec.id);
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len(), "{}: ragged row", spec.id);
        }
        // Text and JSON renderings are non-trivial.
        let text = table.to_string();
        assert!(text.contains(spec.id));
        let json = table.to_json(None);
        assert!(json.contains(&format!("\"id\": \"{}\"", spec.id)));
    }
}

#[test]
fn fig01_reports_all_nine_apps() {
    let session = Session::new(Scale::test());
    let t = figures::fig01::run(&session);
    assert_eq!(t.rows.len(), 9);
    let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(names, ispy_trace::apps::NAMES.to_vec());
}

#[test]
fn fig10_fraction_of_ideal_is_sane() {
    let session = Session::new(Scale::test());
    let t = figures::fig10::run(&session);
    for (r, row) in t.rows.iter().enumerate() {
        let frac = cell_f64(&t, r, 4).expect("parsable percentage");
        assert!((0.0..=100.0).contains(&frac), "{}: fraction of ideal {frac} out of range", row[0]);
    }
}

#[test]
fn fig03_coverage_grows_with_threshold() {
    let session = Session::with_apps(Scale::test(), vec![ispy_trace::apps::wordpress()]);
    let t = figures::fig03::run(&session);
    let first = cell_f64(&t, 0, 1).expect("coverage");
    let last = cell_f64(&t, t.rows.len() - 1, 1).expect("coverage");
    assert!(last >= first, "coverage must not shrink as the threshold rises");
}

/// `(figure id, FNV-1 digest, byte length)` of every figure's JSON export at
/// `Scale::test()` with a fixed `runtime_secs` of 1.5, pinned while tables
/// had their own JSON writer.
const JSON_PINS: [(&str, u64, usize); 21] = [
    ("table1", 0x240c8a6e3b0ddcc5, 1001),
    ("fig01", 0xb7a5d17799899449, 824),
    ("fig03", 0x5f21837215ebc8f6, 835),
    ("fig04", 0x41bf187708751e70, 817),
    ("fig05", 0x228e0c3e28669046, 955),
    ("walkthrough", 0xc0a2ad8e6cfc050b, 754),
    ("fig10", 0x5d8444ce5ed348f9, 1227),
    ("fig11", 0xb4203700c5d19858, 1214),
    ("fig12", 0xcb4c56aa115aa8fa, 1164),
    ("fig13", 0x216a233c7157a5b5, 959),
    ("fig14", 0x4973c61c4f6bf8a3, 1117),
    ("fig15", 0x39244cb65a144c47, 1033),
    ("fig16", 0x94fdca61c374de7f, 1612),
    ("fig17", 0x17151af263e762c9, 780),
    ("fig18", 0xa0ca17e4d7ecb929, 877),
    ("fig19", 0x31b66c79d8e04779, 731),
    ("fig20", 0x53f4210e23ad5eb2, 1643),
    ("fig21", 0x7db73d6d228fa2c0, 799),
    ("abl-replacement", 0xf0f5e08ec459d311, 1122),
    ("abl-sampling", 0x4208b13f5995f90e, 594),
    ("abl-bloomk", 0x7e3efc54f13f4440, 1239),
];

/// The JSON export is byte-stable: every figure's file (what `repro --json`
/// writes, `runtime_secs` included) matches its pin. On a mismatch the
/// assertion prints the current pins in `JSON_PINS` form.
#[test]
fn every_figure_json_matches_its_pin() {
    use ispy_isa::hash::fnv1_64;

    let session = Session::new(Scale::test());
    let got: Vec<(&str, u64, usize)> = figures::all()
        .into_iter()
        .map(|spec| {
            let json = (spec.run)(&session).to_json(Some(1.5));
            (spec.id, fnv1_64(json.as_bytes()), json.len())
        })
        .collect();
    let listing: String =
        got.iter().map(|(id, h, n)| format!("    (\"{id}\", {h:#018x}, {n}),\n")).collect();
    assert_eq!(got, JSON_PINS, "figure JSON changed; current pins:\n{listing}");
}
