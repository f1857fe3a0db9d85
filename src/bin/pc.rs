//! `pc` — a command-line front-end to the Prompt Cache engine.
//!
//! ```text
//! pc demo                                   # built-in end-to-end demo
//! pc layout  schema.pml                     # show position-ID layout
//! pc lint    schema.pml                     # advisory schema diagnostics
//! pc fmt     schema.pml                     # pretty-print PML to stdout
//! pc chat    schema.pml prompt.pml          # multi-turn REPL over a session
//! pc serve   schema.pml prompt.pml [-n 16] [--baseline] [--stream]
//! pc encode  schema.pml -o modules/         # precompute & persist modules
//! pc sweep   [-n 512]                       # cache-advantage sweep
//! ```
//!
//! Models use seeded random weights (the engine's guarantees are about
//! attention-state reuse); the tokenizer is a word tokenizer trained on
//! the supplied files, so layouts and cache statistics are exact.

use pc_cache::{DiskConfig, StoreConfig};
use pc_model::{Model, ModelConfig};
use pc_pml::layout::SchemaLayout;
use pc_pml::template::ChatTemplate;
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use std::process::exit;
use prompt_cache::{ServeRequest, Served};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("demo") => demo(),
        Some("layout") => layout(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("fmt") => fmt(&args[1..]),
        Some("chat") => chat(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("encode") => encode(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        _ => {
            eprintln!(
                "usage: pc <demo | layout <schema> | serve <schema> <prompt> \
                 [-n N] [--baseline] [--stream] | encode <schema> -o <dir> | \
                 lint <schema> | fmt <pml> | chat <schema> <prompt> | sweep [-n N]>"
            );
            2
        }
    };
    exit(code);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    })
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn build_engine(texts: &[&str], seed: u64, config: EngineConfig) -> PromptCache {
    let tokenizer = WordTokenizer::train(texts);
    let vocab = tokenizer.vocab_size().max(64);
    PromptCache::new(
        Model::new(ModelConfig::llama_small(vocab), seed),
        tokenizer,
        config,
    )
}

fn demo() -> i32 {
    let schema = r#"<schema name="demo">
        <module name="context">the quick brown fox jumps over the lazy dog near the river bank</module>
      </schema>"#;
    let prompt = r#"<prompt schema="demo"><context/>what does the fox do</prompt>"#;
    let engine = build_engine(&[schema, "what does the fox do"], 42, EngineConfig::default());
    engine.register_schema(schema).expect("demo schema is valid");
    let opts = ServeOptions::default().max_new_tokens(6);
    let cached = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).expect("serve");
    let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).expect("baseline");
    println!("cached output:   {:?}", cached.text);
    println!("baseline output: {:?}", baseline.text);
    println!("identical: {}", cached.tokens == baseline.tokens);
    println!(
        "TTFT {:?} vs {:?} ({:.1}x), {:.0}% of prompt from cache",
        cached.timings.ttft,
        baseline.timings.ttft,
        baseline.timings.ttft.as_secs_f64() / cached.timings.ttft.as_secs_f64(),
        cached.stats.hit_ratio() * 100.0
    );
    0
}

fn layout(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: pc layout <schema.pml>");
        return 2;
    };
    let source = read(path);
    let schema = match pc_pml::parse_schema(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            return 1;
        }
    };
    let count = |t: &str| t.split_whitespace().count();
    let layout = SchemaLayout::build(&schema, ChatTemplate::Plain, &count);
    println!(
        "schema `{}`: {} positions, {} cacheable tokens\n",
        layout.schema_name,
        layout.total_len,
        layout.cacheable_tokens()
    );
    println!("{:<32} {:>8} {:>8} {:>7}  params", "module", "start", "end", "union");
    for span in layout.anonymous_spans() {
        println!(
            "{:<32} {:>8} {:>8} {:>7}",
            "(anonymous)",
            span.start,
            span.start + span.len,
            "-"
        );
    }
    for m in &layout.modules {
        let path = m.path.join(".");
        let union = m
            .union_group
            .map(|g| format!("#{g}"))
            .unwrap_or_else(|| "-".to_owned());
        let params: Vec<String> = m
            .params
            .iter()
            .map(|p| format!("{}@{}+{}", p.name, p.start, p.len))
            .collect();
        println!(
            "{path:<32} {:>8} {:>8} {union:>7}  {}",
            m.start,
            m.end,
            params.join(" ")
        );
    }
    0
}

fn lint(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: pc lint <schema.pml>");
        return 2;
    };
    let source = read(path);
    let schema = match pc_pml::parse_schema(&source) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("parse error: {e}");
            return 1;
        }
    };
    let count = |t: &str| t.split_whitespace().count();
    let lints = pc_pml::lint::lint_schema(&schema, &count, &pc_pml::lint::LintConfig::default());
    if lints.is_empty() {
        println!("no findings");
        0
    } else {
        for l in &lints {
            println!("warning: {l}");
        }
        1
    }
}

fn chat(args: &[String]) -> i32 {
    let (Some(schema_path), Some(prompt_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: pc chat <schema.pml> <opening-prompt.pml>   (then type messages; EOF ends)");
        return 2;
    };
    let schema_src = read(schema_path);
    let prompt_src = read(prompt_path);
    let engine = build_engine(&[schema_src.as_str(), prompt_src.as_str()], 42, EngineConfig::default());
    if let Err(e) = engine.register_schema(&schema_src) {
        eprintln!("schema error: {e}");
        return 1;
    }
    let opts = ServeOptions::default().max_new_tokens(12);
    let (mut convo, first) = match engine.conversation(&prompt_src, &opts) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("serve error: {e}");
            return 1;
        }
    };
    println!("assistant: {}   [TTFT {:?}]", first.text, first.timings.ttft);
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        eprint!("you> ");
        match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let message = line.trim();
        if message.is_empty() || message == "/quit" {
            break;
        }
        match convo.say(message, &opts) {
            Ok(r) => println!(
                "assistant: {}   [TTFT {:?}, {} history tokens reused]",
                r.text, r.timings.ttft, r.stats.cached_tokens
            ),
            Err(e) => {
                eprintln!("turn failed: {e}");
                break;
            }
        }
    }
    eprintln!(
        "[session closed: {} turns, {} tokens held]",
        convo.turns(),
        convo.session_tokens()
    );
    0
}

fn fmt(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: pc fmt <schema.pml or prompt.pml>");
        return 2;
    };
    let source = read(path);
    if let Ok(schema) = pc_pml::parse_schema(&source) {
        print!("{}", pc_pml::pretty::pretty_schema(&schema));
        return 0;
    }
    match pc_pml::parse_prompt(&source) {
        Ok(prompt) => {
            print!("{}", pc_pml::pretty::pretty_prompt(&prompt));
            0
        }
        Err(e) => {
            eprintln!("not a valid schema or prompt: {e}");
            1
        }
    }
}

fn serve(args: &[String]) -> i32 {
    let (Some(schema_path), Some(prompt_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: pc serve <schema.pml> <prompt.pml> [-n N] [--baseline] [--stream]");
        return 2;
    };
    let schema_src = read(schema_path);
    let prompt_src = read(prompt_path);
    let max_new: usize = flag_value(args, "-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let baseline = args.iter().any(|a| a == "--baseline");
    let stream = args.iter().any(|a| a == "--stream");

    let engine = build_engine(&[schema_src.as_str(), prompt_src.as_str()], 42, EngineConfig::default());
    if let Err(e) = engine.register_schema(&schema_src) {
        eprintln!("schema error: {e}");
        return 1;
    }
    let opts = ServeOptions::default().max_new_tokens(max_new);
    let result = if baseline {
        engine.serve(&ServeRequest::new(&prompt_src).options(opts.clone()).baseline(true)).map(Served::into_response)
    } else if stream {
        let sink = |tok, n| {
            println!("token {n}: {tok}");
        };
        engine
            .serve(
                &ServeRequest::new(&prompt_src)
                    .options(opts.clone())
                    .streaming(&sink),
            )
            .map(Served::into_response)
    } else {
        engine.serve(&ServeRequest::new(&prompt_src).options(opts.clone())).map(Served::into_response)
    };
    match result {
        Ok(r) => {
            for w in &r.warnings {
                eprintln!("warning: {w}");
            }
            println!("{}", r.text);
            eprintln!(
                "[{} | TTFT {:?} (fetch {:?}, prefill {:?}) | {} cached / {} new tokens]",
                if baseline { "baseline" } else { "prompt-cache" },
                r.timings.ttft,
                r.timings.fetch,
                r.timings.prefill,
                r.stats.cached_tokens,
                r.stats.new_tokens
            );
            0
        }
        Err(e) => {
            eprintln!("serve error: {e}");
            1
        }
    }
}

fn encode(args: &[String]) -> i32 {
    let Some(schema_path) = args.first() else {
        eprintln!("usage: pc encode <schema.pml> -o <dir>");
        return 2;
    };
    let Some(out) = flag_value(args, "-o") else {
        eprintln!("usage: pc encode <schema.pml> -o <dir>");
        return 2;
    };
    let schema_src = read(schema_path);
    // The output directory is the engine's disk tier: `snapshot` writes
    // every encoded module into it, and an engine opened over the same
    // directory starts warm.
    let store = StoreConfig::default().disk(DiskConfig::new(&out));
    let engine = build_engine(&[schema_src.as_str()], 42, EngineConfig::default().store(store));
    match engine.register_schema(&schema_src) {
        Ok(info) => {
            let saved = engine.snapshot().unwrap_or_else(|e| {
                eprintln!("snapshot failed: {e}");
                exit(1);
            });
            println!(
                "encoded {} spans ({} tokens, {} bytes) → {saved} modules in {out}",
                info.spans,
                info.cached_tokens,
                engine.cached_bytes()
            );
            0
        }
        Err(e) => {
            eprintln!("schema error: {e}");
            1
        }
    }
}

fn sweep(args: &[String]) -> i32 {
    let max: usize = flag_value(args, "-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(512);
    println!("{:>8} {:>14} {:>14} {:>9}", "tokens", "baseline", "prompt-cache", "speedup");
    let mut n = 64;
    while n <= max {
        let (b, p) = pc_bench::experiments::measured_fully_cached(n);
        println!(
            "{n:>8} {:>14} {:>14} {:>8.1}x",
            format!("{:.2?}", std::time::Duration::from_secs_f64(b)),
            format!("{:.2?}", std::time::Duration::from_secs_f64(p)),
            b / p
        );
        n *= 2;
    }
    0
}
