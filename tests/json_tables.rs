//! The JSON layer's observable behaviour, pinned as literal tables.
//!
//! The writer table gives the exact compact and pretty text of edge
//! values through every `Serialize` impl and every derive shape the
//! workspace uses. The parser table gives, for each input and target
//! type, the decoded value (its `Debug` text) or an error verdict; its
//! request rows also give the error code the daemon answers with. The
//! tables were written against the tree-building implementation, so a
//! rewrite of the vendored crates must keep them passing unchanged.

use mobile_collectors::geom::Point;
use mobile_collectors::net::{SinkPlacement, Topology};
use mobile_collectors::runtime::TopologyManifest;
use mobile_collectors::serve::protocol::{Ack, ErrorResponse, HistEntry};
use mobile_collectors::serve::{Client, Request, ServeConfig, Server};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;

/// Asserts the compact and the pretty text of `value`.
#[track_caller]
fn writes<T: Serialize>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
}

/// Asserts a value whose compact and pretty text coincide (a scalar).
#[track_caller]
fn writes_flat<T: Serialize>(value: &T, text: &str) {
    writes(value, text, text);
}

#[test]
fn writer_output_matches_the_table() {
    // f64: integral values below 1e15 keep a `.0`; larger ones and
    // fractions print as std's shortest round-trip decimal, never with an
    // exponent; non-finite values write `null`.
    writes_flat(&0.0f64, "0.0");
    writes_flat(&-0.0f64, "-0.0");
    writes_flat(&0.1f64, "0.1");
    writes_flat(&-2.5f64, "-2.5");
    writes_flat(&999_999_999_999_999.0f64, "999999999999999.0");
    writes_flat(&1e15f64, "1000000000000000");
    writes_flat(&1e16f64, "10000000000000000");
    writes_flat(&1e-7f64, "0.0000001");
    writes_flat(&5e-324f64, &format!("0.{}5", "0".repeat(323)));
    writes_flat(&f64::MAX, &format!("17976931348623157{}", "0".repeat(292)));
    writes_flat(&f64::NAN, "null");
    writes_flat(&f64::INFINITY, "null");
    writes_flat(&f64::NEG_INFINITY, "null");
    writes_flat(&1.5f32, "1.5");
    writes_flat(&0.1f32, "0.10000000149011612");

    // The classes a shortest-digit port gets wrong. Exact midpoints
    // between the two shortest candidates round up in magnitude, not to
    // even (each sum is exact).
    writes_flat(&-(802_868_034_164_149.0 + 0.25), "-802868034164149.3");
    writes_flat(&-(3_880_559_781_807.0 + 0.906_25), "-3880559781807.9063");
    writes_flat(&-(71_784_402_789.0 + 0.890_625), "-71784402789.89063");
    // The smallest subnormals take one digit where one suffices.
    writes_flat(&1e-323f64, &format!("0.{}1", "0".repeat(322)));
    writes_flat(&1e-322f64, &format!("0.{}1", "0".repeat(321)));
    writes_flat(
        &f64::MIN_POSITIVE,
        &format!("0.{}22250738585072014", "0".repeat(307)),
    );
    // 2^53 sits on a binade edge, where the interval below is half as
    // wide as the one above.
    writes_flat(&9_007_199_254_740_992.0f64, "9007199254740992");
    writes_flat(&9_007_199_254_740_994.0f64, "9007199254740994");
    writes_flat(&1e23f64, "100000000000000000000000");
    writes_flat(&999_999_999_999_999.5f64, "999999999999999.5");
    writes_flat(&(0.1f64 + 0.2), "0.30000000000000004");

    // Integers at their extremes, through every width.
    writes_flat(&u64::MAX, "18446744073709551615");
    writes_flat(&i64::MIN, "-9223372036854775808");
    writes_flat(&255u8, "255");
    writes_flat(&65_535u16, "65535");
    writes_flat(&7u32, "7");
    writes_flat(&usize::MAX, "18446744073709551615");
    writes_flat(&-128i8, "-128");
    writes_flat(&-32_768i16, "-32768");
    writes_flat(&-7i32, "-7");
    writes_flat(&isize::MIN, "-9223372036854775808");
    writes_flat(&true, "true");
    writes_flat(&false, "false");

    // Strings: five short escapes, `\u00XX` for the other controls, and
    // everything else (DEL, non-ASCII) verbatim.
    let s = "q\"b\\n\nr\rt\tc\u{1}d\u{7f}é😀";
    let escaped = "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001d\u{7f}é😀\"";
    writes_flat(&s, escaped);
    writes_flat(&s.to_string(), escaped);
    writes_flat(&&&s, escaped);
    writes_flat(&Box::new(s.to_string()), escaped);
    writes_flat(&"", "\"\"");
    writes_flat(&"\u{0}\u{1f}/", "\"\\u0000\\u001f/\"");

    // Options and arrays, empty ones included (they stay `[]` when pretty).
    writes_flat(&None::<u32>, "null");
    writes_flat(&Some(3u32), "3");
    writes_flat(&Vec::<u32>::new(), "[]");
    writes(&vec![1u32, 2], "[1,2]", "[\n  1,\n  2\n]");
    writes(
        &vec![vec![], vec![1u32], vec![]],
        "[[],[1],[]]",
        "[\n  [],\n  [\n    1\n  ],\n  []\n]",
    );
    writes(
        &vec![None, Some(-1.0f64)],
        "[null,-1.0]",
        "[\n  null,\n  -1.0\n]",
    );

    // Tuples of every arity the impls cover.
    writes(&(1u8,), "[1]", "[\n  1\n]");
    writes(&(1u8, "a"), "[1,\"a\"]", "[\n  1,\n  \"a\"\n]");
    writes(
        &(1u8, -2i64, 0.5f64),
        "[1,-2,0.5]",
        "[\n  1,\n  -2,\n  0.5\n]",
    );
    writes(
        &(true, None::<u8>, vec![0u8], "x"),
        "[true,null,[0],\"x\"]",
        "[\n  true,\n  null,\n  [\n    0\n  ],\n  \"x\"\n]",
    );

    // Derived structs: every field in declaration order, `None` as `null`.
    writes(
        &Point { x: 1.0, y: -2.5 },
        "{\"x\":1.0,\"y\":-2.5}",
        "{\n  \"x\": 1.0,\n  \"y\": -2.5\n}",
    );
    let req = Request {
        cmd: Some("delta".into()),
        died: Some(vec![]),
        added: Some(vec![Point { x: 0.0, y: 1e15 }]),
        ..Request::default()
    };
    writes(
        &req,
        "{\"cmd\":\"delta\",\"field\":null,\"n\":null,\"side\":null,\"seed\":null,\
         \"sensors\":null,\"sink\":null,\"range\":null,\"died\":[],\
         \"added\":[{\"x\":0.0,\"y\":1000000000000000}]}",
        "{\n  \"cmd\": \"delta\",\n  \"field\": null,\n  \"n\": null,\n  \"side\": null,\n  \
         \"seed\": null,\n  \"sensors\": null,\n  \"sink\": null,\n  \"range\": null,\n  \
         \"died\": [],\n  \"added\": [\n    {\n      \"x\": 0.0,\n      \"y\": 1000000000000000\n    \
         }\n  ]\n}",
    );

    // `Vec<(u32, u64)>` inside a derived struct.
    let hist = HistEntry {
        path: "serve/latency_us/delta".into(),
        count: 3,
        buckets: vec![(0, 1), (63, u64::MAX)],
    };
    writes(
        &hist,
        "{\"path\":\"serve/latency_us/delta\",\"count\":3,\"buckets\":[[0,1],[63,18446744073709551615]]}",
        "{\n  \"path\": \"serve/latency_us/delta\",\n  \"count\": 3,\n  \"buckets\": [\n    \
         [\n      0,\n      1\n    ],\n    [\n      63,\n      18446744073709551615\n    ]\n  ]\n}",
    );
    writes(
        &HistEntry {
            path: String::new(),
            count: 0,
            buckets: vec![],
        },
        "{\"path\":\"\",\"count\":0,\"buckets\":[]}",
        "{\n  \"path\": \"\",\n  \"count\": 0,\n  \"buckets\": []\n}",
    );

    // Derived enums: a unit variant is its name, a one-field tuple variant
    // and a struct variant are single-key objects.
    writes_flat(&SinkPlacement::Center, "\"Center\"");
    writes_flat(&SinkPlacement::Corner, "\"Corner\"");
    writes(
        &SinkPlacement::At(Point { x: 3.0, y: 0.25 }),
        "{\"At\":{\"x\":3.0,\"y\":0.25}}",
        "{\n  \"At\": {\n    \"x\": 3.0,\n    \"y\": 0.25\n  }\n}",
    );
    writes(
        &Topology::UniformRandom { n: 5 },
        "{\"UniformRandom\":{\"n\":5}}",
        "{\n  \"UniformRandom\": {\n    \"n\": 5\n  }\n}",
    );
    writes(
        &Topology::GridJitter {
            nx: 2,
            ny: 3,
            jitter: 0.5,
        },
        "{\"GridJitter\":{\"nx\":2,\"ny\":3,\"jitter\":0.5}}",
        "{\n  \"GridJitter\": {\n    \"nx\": 2,\n    \"ny\": 3,\n    \"jitter\": 0.5\n  }\n}",
    );
    writes(
        &TopologyManifest::Uniform {
            n: 300,
            side: 170.0,
            seed: u64::MAX,
        },
        "{\"Uniform\":{\"n\":300,\"side\":170.0,\"seed\":18446744073709551615}}",
        "{\n  \"Uniform\": {\n    \"n\": 300,\n    \"side\": 170.0,\n    \
         \"seed\": 18446744073709551615\n  }\n}",
    );
}

/// Decodes `text` as `T`: `Some(Debug text)`, or `None` for an error.
fn decode<T: Deserialize + Debug>(text: &str) -> Option<String> {
    serde_json::from_str::<T>(text)
        .ok()
        .map(|v| format!("{v:?}"))
}

/// Decodes `text` as the type named `ty`.
fn decode_as(ty: &str, text: &str) -> Option<String> {
    match ty {
        "bool" => decode::<bool>(text),
        "u64" => decode::<u64>(text),
        "u32" => decode::<u32>(text),
        "i64" => decode::<i64>(text),
        "i32" => decode::<i32>(text),
        "f64" => decode::<f64>(text),
        "f32" => decode::<f32>(text),
        "String" => decode::<String>(text),
        "Option<f64>" => decode::<Option<f64>>(text),
        "Vec<u32>" => decode::<Vec<u32>>(text),
        "(u32, u64)" => decode::<(u32, u64)>(text),
        "Point" => decode::<Point>(text),
        "Option<Point>" => decode::<Option<Point>>(text),
        "SinkPlacement" => decode::<SinkPlacement>(text),
        "Topology" => decode::<Topology>(text),
        "HistEntry" => decode::<HistEntry>(text),
        "Request" => decode::<Request>(text),
        "Value" => serde_json::parse_value(text).ok().map(|v| format!("{v:?}")),
        other => panic!("no decoder for `{other}`"),
    }
}

/// `(target type, input, decoded Debug text or None for an error)`.
type ParseRow = (&'static str, &'static str, Option<&'static str>);

/// `Request` with every field `None`.
const EMPTY_REQUEST: &str = "Request { cmd: None, field: None, n: None, side: None, seed: None, \
     sensors: None, sink: None, range: None, died: None, added: None }";

#[rustfmt::skip]
const PARSE_TABLE: &[ParseRow] = &[
    // Numbers: integers into f64, integral floats into integers, and the
    // range checks at each width.
    ("f64", "1", Some("1.0")),
    ("f64", "-3", Some("-3.0")),
    ("f64", "18446744073709551615", Some("1.8446744073709552e19")),
    ("f64", "18446744073709551616", Some("1.8446744073709552e19")),
    ("f64", "-9223372036854775809", Some("-9.223372036854776e18")),
    ("f64", "2.5e-3", Some("0.0025")),
    ("f64", "1E2", Some("100.0")),
    ("f64", "1e400", Some("inf")),
    ("f64", "-1e400", Some("-inf")),
    ("f64", "1e-400", Some("0.0")),
    ("f64", "-0", Some("0.0")),
    ("f64", "-0.0", Some("-0.0")),
    ("f32", "0.1", Some("0.1")),
    ("f64", "\"1\"", None),
    ("f64", "null", None),
    ("f64", "true", None),
    ("f64", "[1]", None),
    ("f64", "-", None),
    ("f64", "1e", None),
    ("f64", "1-2", None),
    ("f64", "--1", None),
    ("u64", "1.0", Some("1")),
    ("u64", "1e3", Some("1000")),
    ("u64", "-0", Some("0")),
    ("u64", "-0.0", Some("0")),
    ("u64", "18446744073709551615", Some("18446744073709551615")),
    ("u64", "-1", None),
    ("u64", "1.5", None),
    ("u64", "1e400", None),
    ("u64", "-1e400", None),
    ("u32", "4294967295", Some("4294967295")),
    ("u32", "4294967296", None),
    ("i64", "-9223372036854775808", Some("-9223372036854775808")),
    ("i64", "9223372036854775807", Some("9223372036854775807")),
    ("i64", "9223372036854775808", None),
    ("i64", "-2.0", Some("-2")),
    ("i64", "0.5", None),
    ("i32", "-2147483649", None),
    // Leading `+` and zeros: the number scanner hands the text to std's
    // parsers, which take them.
    ("u64", "+1", Some("1")),
    ("u64", "007", Some("7")),
    ("f64", ".5", Some("0.5")),
    ("f64", "5.", Some("5.0")),

    // Literals.
    ("bool", "true", Some("true")),
    ("bool", " false ", Some("false")),
    ("bool", "tru", None),
    ("bool", "1", None),
    ("Option<f64>", "null", Some("None")),
    ("Option<f64>", "2", Some("Some(2.0)")),
    ("Option<f64>", "nul", None),
    ("Option<f64>", "nullx", None),

    // Strings and escapes.
    ("String", "\"\\/\"", Some("\"/\"")),
    ("String", "\"a\\\"b\\\\c\\n\\r\\t\\b\\f\"", Some("\"a\\\"b\\\\c\\n\\r\\t\\u{8}\\u{c}\"")),
    ("String", "\"\\u0041\\u00e9\\u20AC\"", Some("\"Aé€\"")),
    ("String", "\"é😀\"", Some("\"é😀\"")),
    ("String", "\"tab\there\"", Some("\"tab\\there\"")),
    ("String", "\"\\ud800x\"", Some("\"\u{fffd}x\"")),
    ("String", "\"\\udc00\"", Some("\"\u{fffd}\"")),
    ("String", "\"\\u12\"", None),
    ("String", "\"\\u12zz\"", None),
    ("String", "\"\\x\"", None),
    ("String", "\"open", None),
    ("String", "\"\\", None),
    ("String", "5", None),

    // Arrays and tuples.
    ("Vec<u32>", "[]", Some("[]")),
    ("Vec<u32>", " [ 1 , 2 ] ", Some("[1, 2]")),
    ("Vec<u32>", "[1,]", None),
    ("Vec<u32>", "[,1]", None),
    ("Vec<u32>", "[1 2]", None),
    ("Vec<u32>", "[1", None),
    ("Vec<u32>", "[", None),
    ("Vec<u32>", "{}", None),
    ("Vec<u32>", "null", None),
    ("(u32, u64)", "[1,2]", Some("(1, 2)")),
    ("(u32, u64)", "[1]", None),
    ("(u32, u64)", "[1,2,3]", None),

    // Structs: the first of duplicate keys wins and a later duplicate is
    // never decoded; unknown fields are skipped whatever they hold; a
    // missing `Option` is `None` and a missing required field an error.
    ("Point", "{\"x\":1,\"y\":2}", Some("Point { x: 1.0, y: 2.0 }")),
    ("Point", "{\"y\":2,\"x\":1}", Some("Point { x: 1.0, y: 2.0 }")),
    ("Point", "{\"x\":1,\"y\":2,\"x\":\"later\"}", Some("Point { x: 1.0, y: 2.0 }")),
    ("Point", "{\"x\":\"first\",\"y\":2,\"x\":1}", None),
    ("Point", "{\"x\":1,\"y\":2,\"z\":{\"a\":[1,{\"b\":null}],\"c\":\"d\"}}", Some("Point { x: 1.0, y: 2.0 }")),
    ("Point", "{\"x\":1,\"y\":2,\"z\":[1,}", None),
    ("Point", "{\"x\":1,\"y\":2,\"z\":1-2}", None),
    ("Point", "{\"x\":1,\"y\":2,\"z\":\"\\q\"}", None),
    ("Point", "{\"x\":1}", None),
    ("Point", "{\"x\":1,\"y\":null}", None),
    ("Point", "{}", None),
    ("Point", "{\"x\":1,\"y\":2,}", None),
    ("Point", "{\"x\" 1,\"y\":2}", None),
    ("Point", "{x:1,\"y\":2}", None),
    ("Point", "5", None),
    ("Option<Point>", "null", Some("None")),
    ("Option<Point>", "{\"x\":0,\"y\":0}", Some("Some(Point { x: 0.0, y: 0.0 })")),
    ("HistEntry", "{\"path\":\"p\",\"count\":2,\"buckets\":[[1,2],[3,4]]}",
        Some("HistEntry { path: \"p\", count: 2, buckets: [(1, 2), (3, 4)] }")),
    ("HistEntry", "{\"path\":\"p\",\"count\":2,\"buckets\":[[1,2,3]]}", None),

    // A non-object where a struct is expected reads every field as absent.
    ("Request", "5", Some(EMPTY_REQUEST)),
    ("Request", "[1,2]", Some(EMPTY_REQUEST)),
    ("Request", "\"metrics\"", Some(EMPTY_REQUEST)),
    ("Request", "null", Some(EMPTY_REQUEST)),
    ("Request", "{}", Some(EMPTY_REQUEST)),

    // Whitespace everywhere, trailing data, and empty input.
    ("Request", " \t\r\n{ \"cmd\" :\n\"metrics\" , \"n\" : 5 }\r\n\t ",
        Some("Request { cmd: Some(\"metrics\"), field: None, n: Some(5), side: None, seed: None, \
              sensors: None, sink: None, range: None, died: None, added: None }")),
    ("Request", "{\"cmd\":\"metrics\"} x", None),
    ("Request", "{\"cmd\":\"metrics\"}{}", None),
    ("Request", "", None),
    ("Request", "   ", None),
    ("u64", "1 2", None),

    // Derived enums.
    ("SinkPlacement", "\"Center\"", Some("Center")),
    ("SinkPlacement", "{\"At\":{\"x\":1,\"y\":2}}", Some("At(Point { x: 1.0, y: 2.0 })")),
    ("SinkPlacement", "{\"At\":{\"x\":1,\"y\":2,\"x\":3}}", Some("At(Point { x: 1.0, y: 2.0 })")),
    ("SinkPlacement", "\"Middle\"", None),
    ("SinkPlacement", "\"At\"", None),
    ("SinkPlacement", "{\"Center\":null}", None),
    ("SinkPlacement", "{\"At\":{\"x\":1,\"y\":2},\"Corner\":1}", None),
    ("SinkPlacement", "{}", None),
    ("SinkPlacement", "null", None),
    ("Topology", "{\"UniformRandom\":{\"n\":5}}", Some("UniformRandom { n: 5 }")),
    ("Topology", "{\"UniformRandom\":{\"n\":5,\"extra\":[]}}", Some("UniformRandom { n: 5 }")),
    ("Topology", "{\"UniformRandom\":5}", None),
    ("Topology", "{\"GridJitter\":{\"nx\":1,\"ny\":2}}", None),

    // The document tree behind `parse_value`.
    ("Value", "[1,-1,1.5,\"a\",null,true,{\"k\":[]}]",
        Some("Arr([U64(1), I64(-1), F64(1.5), Str(\"a\"), Null, Bool(true), Obj([(\"k\", Arr([]))])])")),
    ("Value", "{\"a\":1,\"a\":2}", Some("Obj([(\"a\", U64(1)), (\"a\", U64(2))])")),
    ("Value", "18446744073709551616", Some("F64(1.8446744073709552e19)")),
    ("Value", "-9223372036854775808", Some("I64(-9223372036854775808)")),
    ("Value", "-0", Some("I64(0)")),
    ("Value", "1.0", Some("F64(1.0)")),
    ("Value", "{\"a\":}", None),
];

#[test]
fn parser_verdicts_match_the_table() {
    let mut wrong = Vec::new();
    for &(ty, text, want) in PARSE_TABLE {
        let got = decode_as(ty, text);
        if got.as_deref() != want {
            wrong.push(format!("{ty} from {text:?}: got {got:?}, want {want:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// `(request line, the daemon's answer: "ok" or its error code)`.
#[rustfmt::skip]
const REQUEST_TABLE: &[(&str, &str)] = &[
    ("{\"cmd\":\"metrics\"}", "ok"),
    ("{\"cmd\":\"metrics\",\"bogus\":{\"deep\":[1,[2,{}]]}}", "ok"),
    ("{\"cmd\":\"metrics\",\"cmd\":\"shutdown\"}", "ok"),
    ("5", "bad_request"),
    ("[1,2]", "bad_request"),
    ("{}", "bad_request"),
    ("{\"cmd\":null}", "bad_request"),
    ("{\"cmd\":5}", "bad_json"),
    ("{\"cmd\":\"frobnicate\"}", "unknown_cmd"),
    ("{\"cmd\":\"get_plan\",\"field\":\"nope\"}", "unknown_session"),
    ("{\"cmd\":\"plan\",\"field\":\"f\",\"n\":10.0,\"side\":100,\"range\":30}", "ok"),
    ("{\"cmd\":\"plan\",\"field\":\"g\",\"n\":-1,\"side\":100,\"range\":30}", "bad_json"),
    ("{\"cmd\":\"plan\",\"field\":\"g\",\"n\":1e400,\"side\":100,\"range\":30}", "bad_json"),
    ("{\"cmd\":\"plan\",\"field\":\"g\",\"n\":10,\"side\":1e400,\"range\":30}", "bad_request"),
    ("{\"cmd\":\"plan\",\"field\":\"g\",\"n\":10,\"side\":100,\"range\":\"30\"}", "bad_json"),
    ("{\"cmd\":\"delta\",\"field\":\"f\",\"died\":[1.0],\"added\":[{\"x\":5,\"y\":5}]}", "ok"),
    ("{\"cmd\":\"delta\",\"field\":\"f\",\"added\":[{\"x\":5}]}", "bad_json"),
    ("{\"cmd\":\"delta\",\"field\":\"f\",\"died\":[2],\"died\":\"later\"}", "ok"),
    ("{\"cmd\":\"metrics\"} x", "bad_json"),
    ("{\"cmd\":\"metrics\",}", "bad_json"),
    ("[", "bad_json"),
];

#[test]
fn daemon_error_codes_match_the_table() {
    let server = Server::start(ServeConfig::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connects");
    let mut wrong = Vec::new();
    for &(line, want) in REQUEST_TABLE {
        let resp = client.send_raw(line).expect("the daemon answers");
        let ack: Ack = serde_json::from_str(&resp).expect("every reply carries `ok`");
        let got = if ack.ok {
            "ok".to_string()
        } else {
            let err: ErrorResponse = serde_json::from_str(&resp).expect("an error reply");
            err.error.code
        };
        if got != want {
            wrong.push(format!("{line:?}: got {got}, want {want} ({resp})"));
        }
    }
    server.shutdown();
    server.join();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
