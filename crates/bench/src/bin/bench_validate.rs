//! Validates bench artifacts against their declared schema — CI's guard
//! against schema drift and against the measured properties quietly
//! regressing. All schema arms live in [`bench::validate`]; this binary
//! just reads the file, parses it, and reports.
//!
//! ```text
//! cargo run -p bench --release --bin bench-validate <path>
//! ```

use bench::json::{parse, Json};
use bench::validate::validate;

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: bench-validate <artifact.json>");
        std::process::exit(1);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench-validate: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench-validate: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let errors = validate(&doc);
    if errors.is_empty() {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("?");
        println!("bench-validate: {path} conforms to {schema}");
    } else {
        for e in &errors {
            eprintln!("bench-validate: {path}: {e}");
        }
        std::process::exit(1);
    }
}
