//! Property-based round-trip tests: parse(serialize(v)) == v for arbitrary
//! JSON values, in both compact and pretty form.

use cogsdk_json::{write_display, Json, JsonText, Number};
use proptest::prelude::*;

fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        any::<i64>().prop_map(|i| Json::Number(Number::Int(i))),
        // Finite floats only; JSON cannot carry NaN/inf.
        prop::num::f64::NORMAL.prop_map(|f| Json::Number(Number::Float(f))),
        "[a-zA-Z0-9 _\\-\\\\\"\n\t\u{00e9}\u{4e16}]{0,12}".prop_map(Json::String),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Json::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..6)
                .prop_map(|kv| Json::Object(kv.into_iter().collect())),
        ]
    })
}

proptest! {
    #[test]
    fn compact_round_trip(v in arb_json()) {
        let text = v.to_json();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn pretty_round_trip(v in arb_json()) {
        let text = v.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn write_to_appends_exactly_to_json(v in arb_json(), prefix in "[a-z\"{,]{1,8}") {
        let mut out = prefix.clone();
        v.write_to(&mut out);
        prop_assert_eq!(&out[..prefix.len()], prefix.as_str());
        prop_assert_eq!(&out[prefix.len()..], v.to_json());
    }

    #[test]
    fn write_display_equals_the_string_value(s in "\\PC{0,24}|[\u{0}-\u{1f}\"\\\\\u{e9}]{0,12}") {
        let mut out = String::from("x");
        write_display(&mut out, &s);
        prop_assert_eq!(&out[1..], Json::from(s.as_str()).to_json());
    }

    #[test]
    fn json_text_round_trips(v in arb_json()) {
        let text = JsonText::from(v.clone());
        prop_assert_eq!(text.as_str(), v.to_json());
        prop_assert_eq!(text.to_json(), v.to_json());
        prop_assert_eq!(Json::parse(text.as_str()).unwrap(), v);
        prop_assert_eq!(JsonText::from_written(text.clone().into_string()), text);
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(s in "\\PC{0,64}") {
        let _ = Json::parse(&s);
    }

    #[test]
    fn size_bytes_is_close_to_serialized_length(v in arb_json()) {
        // size_bytes is an estimate used by latency models; it should be
        // within a reasonable factor of the actual compact serialization.
        let est = v.size_bytes();
        let actual = v.to_json().len();
        prop_assert!(est + 16 >= actual / 8, "est={est} actual={actual}");
    }
}
