//! The benchmark prints exactly the workloads and metrics (names and
//! units) that `BENCHMARK.json` declares, its smoke runs pass their own
//! output checks, and it refuses to run under an `NDSEARCH_*` override.

use std::collections::BTreeMap;
use std::process::Command;

/// A parsed JSON value (just enough of JSON for these two documents).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(
                        self.s[self.i], b'\\',
                        "escapes are not used by these documents"
                    );
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn bench() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ndsearch-perfbench"));
    for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("NDSEARCH_")) {
        cmd.env_remove(k);
    }
    cmd
}

/// `(name, unit)` pairs of a metric list.
fn declared(list: &Json) -> Vec<(String, String)> {
    list.arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["batch_paper", "serve_int8", "mixed_sharded"]);
    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = bench()
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("benchmark runs");
            assert!(out.status.success(), "{workload} trace {trace}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let result = Json::parse(stdout.lines().last().expect("a result line"));
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload}: {stdout}"
            );
            assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}");
            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("metrics object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(matches!(m.get("value"), Json::Num(_)), "{name} value");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            let mut expected = declared(spec.get(list));
            expected.sort();
            assert_eq!(printed, expected, "{workload} --trace {trace} vs {list}");
        }
    }
}

#[test]
fn refuses_ndsearch_overrides() {
    let out = bench()
        .env("NDSEARCH_EXEC_THREADS", "1")
        .args([
            "--workload",
            "serve_int8",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result is printed");
}
