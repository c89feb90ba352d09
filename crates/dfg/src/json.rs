//! JSON string escaping shared by every hand-rolled JSON writer in the
//! workspace (lint and analysis reports, certificates, serve replies), so
//! they all escape node names and messages with the same bytes.

use core::fmt::Write as _;

/// Appends `s` to `out` as the *contents* of a JSON string literal
/// (without the surrounding quotes): `"` and `\` are backslash-escaped,
/// `\n`, `\r` and `\t` use their short escapes, every other control
/// character below U+0020 becomes `\u00XX` (lowercase hex), and all
/// remaining characters are copied unchanged.
///
/// ```
/// let mut out = String::new();
/// rotsched_dfg::json::push_json_str(&mut out, "a\"b\n");
/// assert_eq!(out, r#"a\"b\n"#);
/// ```
pub fn push_json_str(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_json_str(&mut out, s);
        out
    }

    #[test]
    fn json_is_escaped() {
        assert_eq!(escaped("has \"zero\" time"), "has \\\"zero\\\" time");
        assert_eq!(escaped("set time >= 1"), "set time >= 1");
        assert_eq!(escaped("a\\b"), "a\\\\b");
        assert_eq!(escaped("l1\nl2\r\tx"), "l1\\nl2\\r\\tx");
        assert_eq!(escaped("\u{1}"), "\\u0001");
        assert_eq!(escaped("\u{1f}é∑"), "\\u001fé∑");
        assert_eq!(escaped(""), "");
    }
}
