//! The one JSON emitter outside `benchmark/`: a std-only pretty writer in
//! the layout the committed `BENCH_*.json` files have always had (2-space
//! indent, `": "`, one array element per line, floats as `{:?}`, non-finite
//! floats as `null`), so regenerating them shows only real changes.

/// Append `self` as pretty JSON; `depth` is the nesting level of the line
/// the value starts on.
pub trait ToJson {
    fn write_json(&self, out: &mut String, depth: usize);
}

/// `v` as a pretty-printed JSON document.
pub fn pretty(v: &impl ToJson) -> String {
    let mut out = String::new();
    v.write_json(&mut out, 0);
    out
}

fn seq<T>(
    out: &mut String,
    depth: usize,
    [open, close]: [char; 2],
    items: &[T],
    each: impl Fn(&mut String, &T),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        each(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// An object of `fields` in the order given (what `json_struct!` expands to).
pub fn object(out: &mut String, depth: usize, fields: &[(&str, &dyn ToJson)]) {
    seq(out, depth, ['{', '}'], fields, |out, (key, value)| {
        out.push_str(&quoted(key));
        out.push_str(": ");
        value.write_json(out, depth + 1);
    });
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String, depth: usize) {
        seq(out, depth, ['[', ']'], self, |out, v| {
            v.write_json(out, depth + 1)
        });
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

macro_rules! scalars {
    ($($t:ty => |$v:ident| $text:expr),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String, _: usize) {
                let $v = self;
                out.push_str(&$text);
            }
        }
    )*};
}
scalars! {
    bool => |v| v.to_string(),
    u64 => |v| v.to_string(),
    usize => |v| v.to_string(),
    f64 => |v| if v.is_finite() { format!("{v:?}") } else { "null".into() },
    String => |v| quoted(v),
    &str => |v| quoted(v)
}

/// Declare a plain named-field struct (attributes, doc comments and field
/// visibility pass through) with a [`ToJson`] impl: an object of its fields
/// in declaration order.
#[macro_export]
macro_rules! json_struct {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])* $vis struct $name { $($(#[$fmeta])* $fvis $field: $ty),* }
        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String, depth: usize) {
                let fields: &[(&str, &dyn $crate::json::ToJson)] =
                    &[$((stringify!($field), &self.$field)),*];
                $crate::json::object(out, depth, fields);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    json_struct! {
        struct Node { name: &'static str, ok: bool, xs: Vec<u64>, y: f64, kids: Vec<Node> }
    }

    #[test]
    fn layout_matches_the_committed_bench_files() {
        let node = |name, ok, xs, y, kids| Node {
            name,
            ok,
            xs,
            y,
            kids,
        };
        let leaf = node("b", false, vec![], f64::NAN, vec![]);
        let doc = node("a \"q\"\\\n\u{1}µ", true, vec![1, 20], 2.0, vec![leaf]);
        let want = r#"{
  "name": "a \"q\"\\\n\u0001µ",
  "ok": true,
  "xs": [
    1,
    20
  ],
  "y": 2.0,
  "kids": [
    {
      "name": "b",
      "ok": false,
      "xs": [],
      "y": null,
      "kids": []
    }
  ]
}"#;
        assert_eq!(super::pretty(&doc), want);
        assert_eq!(super::pretty(&f64::INFINITY), "null");
    }
}
