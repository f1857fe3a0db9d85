//! Seeded input generator: schemas, prompts, the request sequence, arrival
//! times and the write schedule. The program under test receives only what
//! is generated here; the same seed gives byte-identical inputs.
//!
//! Sizes are fixed in tokens, not in words, so a different seed changes
//! the content of every prompt but not the amount of work in it.

use crate::rng::{Rng, Zipf};
use pc_tokenizer::{BpeTokenizer, Tokenizer};
use std::collections::VecDeque;

/// BPE vocabulary size the tokenizer is trained to (specials + 256 bytes +
/// merges); the model's embedding table is sized from what training yields.
pub const TOKENIZER_VOCAB: usize = 768;

/// Separator between generated sentences. It never occurs in the training
/// corpus, so BPE learns no merge across it and the token count of a text
/// is the sum of its sentences' counts plus one per separator.
const SENTENCE_SEPARATOR: &str = "\n";

const SENTENCE_TOKENS_MIN: usize = 4;
const SENTENCE_TOKENS_MAX: usize = 16;

/// The six import orders of three modules; every order but the first
/// places at least two modules away from where they were encoded.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitClosed,
    MissClosed,
    DecodeSaturated,
    ChurnOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HitClosed,
        Workload::MissClosed,
        Workload::DecodeSaturated,
        Workload::ChurnOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitClosed => "hit_closed",
            Workload::MissClosed => "miss_closed",
            Workload::DecodeSaturated => "decode_saturated",
            Workload::ChurnOpen => "churn_open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every size the workloads depend on. `full()` is the benchmark; `quick()`
/// is the smoke pass and measures nothing worth comparing.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub hit_schemas: usize,
    pub hit_module_tokens: [usize; 3],
    pub hit_suffix_tokens: usize,
    pub hit_variants: usize,
    pub miss_prompts: usize,
    pub short_new_tokens: usize,
    /// Output tokens of a bypass request. More than `short_new_tokens`: a
    /// time per output token taken over seven decode steps (1.3 ms behind a
    /// 37 ms prefill) moved by 12 % from run to run with every hiccup of
    /// the host; over 23 steps it moves by 3 %.
    pub miss_new_tokens: usize,
    pub decode_module_tokens: usize,
    pub decode_suffix_tokens: usize,
    pub decode_prompts: usize,
    pub decode_new_tokens: usize,
    pub decode_outstanding: usize,
    pub churn_schemas: usize,
    pub churn_module_tokens: [usize; 3],
    pub churn_suffix_tokens: usize,
    pub churn_variants: usize,
    /// Reads per second, one per slot of the schedule.
    pub churn_rate_rps: f64,
    /// Every this-many-th read has a write sent right behind it.
    pub churn_write_every: usize,
    /// Host-tier capacity as a share of the live schemas' encoded bytes.
    pub churn_host_share: f64,
    pub warmup_requests: usize,
    /// Set-ups before the timed window (the last one is measured) and
    /// after it; `setup_s` is the median of them all.
    pub setups_before: usize,
    pub setups_after: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            hit_schemas: 8,
            hit_module_tokens: [96, 96, 96],
            hit_suffix_tokens: 16,
            hit_variants: 8,
            miss_prompts: 24,
            short_new_tokens: 8,
            miss_new_tokens: 24,
            decode_module_tokens: 512,
            decode_suffix_tokens: 16,
            decode_prompts: 64,
            decode_new_tokens: 48,
            decode_outstanding: 8,
            churn_schemas: 64,
            churn_module_tokens: [32, 32, 32],
            churn_suffix_tokens: 12,
            churn_variants: 4,
            churn_rate_rps: 64.0,
            churn_write_every: 32,
            churn_host_share: 0.65,
            warmup_requests: 24,
            setups_before: 2,
            setups_after: 3,
        }
    }

    pub fn quick() -> Self {
        Sizes {
            hit_schemas: 3,
            hit_module_tokens: [20, 24, 28],
            hit_suffix_tokens: 8,
            hit_variants: 6,
            miss_prompts: 6,
            short_new_tokens: 4,
            miss_new_tokens: 4,
            decode_module_tokens: 64,
            decode_suffix_tokens: 8,
            decode_prompts: 12,
            decode_new_tokens: 12,
            decode_outstanding: 8,
            churn_schemas: 12,
            churn_module_tokens: [16, 16, 16],
            churn_suffix_tokens: 8,
            churn_variants: 2,
            churn_rate_rps: 48.0,
            churn_write_every: 8,
            churn_host_share: 0.4,
            warmup_requests: 4,
            setups_before: 1,
            setups_after: 0,
        }
    }

    pub fn hit_prompt_tokens(&self) -> usize {
        self.hit_module_tokens.iter().sum::<usize>() + self.hit_suffix_tokens
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct SchemaDef {
    pub name: String,
    pub pml: String,
    /// Tokens the engine should report as cached at registration.
    pub tokens: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub struct PromptDef {
    pub pml: String,
    /// The text the engine has to tokenize at serve time (the suffix, or
    /// the whole prompt on the bypass workload).
    pub uncached_text: String,
    pub cached_tokens: usize,
    pub new_tokens: usize,
    pub max_new_tokens: usize,
    pub baseline: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Read {
        due_s: f64,
        prompt: usize,
    },
    /// Register `plan.fresh[register]`, then unregister `unregister`.
    Write {
        due_s: f64,
        register: usize,
        unregister: String,
    },
}

impl Event {
    pub fn due_s(&self) -> f64 {
        match self {
            Event::Read { due_s, .. } | Event::Write { due_s, .. } => *due_s,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Pace {
    /// Each of `outstanding` clients sends its next request when the
    /// previous one completes; the sequence is an endless seeded stream.
    Closed { outstanding: usize },
    /// Requests are sent when due, whatever the server is doing.
    Open { events: Vec<Event> },
}

/// Everything one workload run needs, generated from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Registered during set-up.
    pub schemas: Vec<SchemaDef>,
    /// Registered by write events, in order (`churn_open` only).
    pub fresh: Vec<SchemaDef>,
    /// The distinct prompts; requests refer to them by index.
    pub prompts: Vec<PromptDef>,
    pub pace: Pace,
    /// Host-tier byte capacity (0 = unbounded) and whether a disk tier sits
    /// below it.
    pub host_capacity_bytes: usize,
    pub disk_tier: bool,
}

impl Plan {
    /// The closed-loop request stream: prompt indices drawn from the seed.
    /// Every rung of the ladder restarts it, so all replay one sequence.
    pub fn closed_stream(&self) -> impl FnMut() -> usize {
        let mut rng = Rng::fork(self.seed, "sequence");
        let n = self.prompts.len();
        move || rng.below(n)
    }

    /// Requests served before timing starts; its own stream, so warming
    /// longer does not shift the timed sequence.
    pub fn warmup(&self, count: usize) -> Vec<usize> {
        match &self.pace {
            // A bypass has no cache to warm; a few requests settle the rest.
            Pace::Closed { .. } => {
                let count = if self.workload == Workload::MissClosed {
                    count / 6
                } else {
                    count
                };
                let mut rng = Rng::fork(self.seed, "warmup");
                (0..count).map(|_| rng.below(self.prompts.len())).collect()
            }
            // One read per live schema fills the tiers the way the timed
            // window finds them; fresh schemas are not registered yet.
            Pace::Open { .. } => {
                let variants = self.prompts.len() / (self.schemas.len() + self.fresh.len());
                (0..self.schemas.len()).map(|s| s * variants).collect()
            }
        }
    }
}

/// Words, the tokenizer's training corpus and the tokenizer itself: all
/// independent of the run seed, so tokenizer training is the same work in
/// every run.
pub struct Lexicon {
    words: Vec<String>,
    pub corpus: Vec<String>,
}

impl Lexicon {
    pub fn new() -> Self {
        const ONSETS: [&str; 16] = [
            "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "st",
        ];
        const VOWELS: [&str; 6] = ["a", "e", "i", "o", "u", "ai"];
        const CODAS: [&str; 6] = ["", "", "n", "r", "s", "l"];
        let mut rng = Rng::fork(0, "lexicon");
        let mut words: Vec<String> = Vec::new();
        while words.len() < 400 {
            let mut word = String::new();
            for _ in 0..1 + rng.below(3) {
                word.push_str(ONSETS[rng.below(ONSETS.len())]);
                word.push_str(VOWELS[rng.below(VOWELS.len())]);
                word.push_str(CODAS[rng.below(CODAS.len())]);
            }
            if !words.contains(&word) {
                words.push(word);
            }
        }
        let corpus = (0..160)
            .map(|_| {
                let n = 6 + rng.below(10);
                let line: Vec<&str> = (0..n)
                    .map(|_| words[rng.below(words.len())].as_str())
                    .collect();
                format!("{}.", line.join(" "))
            })
            .collect();
        Lexicon { words, corpus }
    }

    pub fn train_tokenizer(&self) -> BpeTokenizer {
        let lines: Vec<&str> = self.corpus.iter().map(String::as_str).collect();
        BpeTokenizer::train(&lines, TOKENIZER_VOCAB)
    }
}

/// Sentences of known token length, bucketed by that length.
struct SentenceBank {
    by_tokens: Vec<Vec<String>>,
}

impl SentenceBank {
    fn new(lexicon: &Lexicon, tokenizer: &BpeTokenizer, rng: &mut Rng) -> Self {
        let mut by_tokens: Vec<Vec<String>> = vec![Vec::new(); SENTENCE_TOKENS_MAX + 1];
        let full = |b: &Vec<Vec<String>>| b[SENTENCE_TOKENS_MIN..].iter().all(|v| v.len() >= 6);
        let mut attempts = 0;
        while !full(&by_tokens) {
            attempts += 1;
            assert!(
                attempts < 100_000,
                "sentence bank cannot cover every length"
            );
            let n = 1 + rng.below(9);
            let line: Vec<&str> = (0..n)
                .map(|_| lexicon.words[rng.below(lexicon.words.len())].as_str())
                .collect();
            let sentence = format!("{}.", line.join(" "));
            let tokens = tokenizer.encode(&sentence).len();
            if (SENTENCE_TOKENS_MIN..=SENTENCE_TOKENS_MAX).contains(&tokens)
                && by_tokens[tokens].len() < 24
            {
                by_tokens[tokens].push(sentence);
            }
        }
        SentenceBank { by_tokens }
    }

    /// A text of `target` tokens: sentences joined by the separator, the
    /// last ones chosen so the sum comes out exactly.
    fn text(&self, target: usize, tokenizer: &BpeTokenizer, rng: &mut Rng) -> String {
        assert!(
            target >= SENTENCE_TOKENS_MIN,
            "text of {target} tokens is too short"
        );
        let mut parts: Vec<&str> = Vec::new();
        let mut remaining = target;
        while remaining > 0 {
            // After the first sentence each one also costs a separator.
            let sep = usize::from(!parts.is_empty());
            let budget = remaining - sep;
            let fits =
                |len: usize| len == budget || (len < budget && budget - len > SENTENCE_TOKENS_MIN);
            let lengths: Vec<usize> = (SENTENCE_TOKENS_MIN..=SENTENCE_TOKENS_MAX)
                .filter(|&l| fits(l))
                .collect();
            let len = lengths[rng.below(lengths.len())];
            let bucket = &self.by_tokens[len];
            parts.push(bucket[rng.below(bucket.len())].as_str());
            remaining = budget - len;
        }
        let text = parts.join(SENTENCE_SEPARATOR);
        trim_to_tokens(text, target, tokenizer)
    }
}

/// The sentence arithmetic is exact while the tokenizer never merges across
/// the separator. Should a later tokenizer break that, fall back to
/// dropping trailing characters until the count fits, so sizes stay close.
fn trim_to_tokens(mut text: String, target: usize, tokenizer: &BpeTokenizer) -> String {
    while tokenizer.encode(&text).len() > target && text.len() > 1 {
        text.pop();
        while text.ends_with(char::is_whitespace) {
            text.pop();
        }
    }
    text
}

fn schema_pml(name: &str, modules: &[String]) -> String {
    let mut pml = format!("<schema name=\"{name}\">");
    for (i, text) in modules.iter().enumerate() {
        pml.push_str(&format!("<module name=\"m{i}\">{text}</module>"));
    }
    pml.push_str("</schema>");
    pml
}

fn import_pml(schema: &str, order: &[usize], suffix: &str) -> String {
    let imports: String = order.iter().map(|m| format!("<m{m}/>")).collect();
    format!("<prompt schema=\"{schema}\">{imports}{suffix}</prompt>")
}

struct Generator<'a> {
    bank: SentenceBank,
    tokenizer: &'a BpeTokenizer,
    rng: Rng,
}

impl Generator<'_> {
    fn text(&mut self, tokens: usize) -> String {
        self.bank.text(tokens, self.tokenizer, &mut self.rng)
    }

    fn schema(&mut self, name: String, module_tokens: &[usize]) -> SchemaDef {
        let modules: Vec<String> = module_tokens.iter().map(|&t| self.text(t)).collect();
        SchemaDef {
            pml: schema_pml(&name, &modules),
            name,
            tokens: module_tokens.iter().sum(),
        }
    }

    /// `variants` prompts over one three-module schema, cycling through
    /// the import orders, each with its own suffix.
    fn import_prompts(
        &mut self,
        schema: &SchemaDef,
        variants: usize,
        suffix_tokens: usize,
        max_new_tokens: usize,
        out: &mut Vec<PromptDef>,
    ) {
        for v in 0..variants {
            let suffix = self.text(suffix_tokens);
            out.push(PromptDef {
                pml: import_pml(&schema.name, &ORDERS[v % ORDERS.len()], &suffix),
                uncached_text: suffix,
                cached_tokens: schema.tokens,
                new_tokens: suffix_tokens,
                max_new_tokens,
                baseline: false,
            });
        }
    }
}

/// Generates the plan of `workload` for `seed`. `seconds` bounds the
/// open-loop schedule; closed loops run until the clock says stop.
pub fn plan(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    lexicon: &Lexicon,
    tokenizer: &BpeTokenizer,
    kv_bytes_per_token: usize,
) -> Plan {
    let mut rng = Rng::fork(seed, "text");
    let bank = SentenceBank::new(lexicon, tokenizer, &mut rng);
    let mut g = Generator {
        bank,
        tokenizer,
        rng,
    };
    let mut plan = Plan {
        workload,
        seed,
        schemas: Vec::new(),
        fresh: Vec::new(),
        prompts: Vec::new(),
        pace: Pace::Closed { outstanding: 1 },
        host_capacity_bytes: 0,
        disk_tier: false,
    };
    match workload {
        Workload::HitClosed | Workload::MissClosed => {
            // Both register the same schemas, so the two servers hold the
            // same state and differ only in what the requests ask for.
            for s in 0..sizes.hit_schemas {
                let schema = g.schema(format!("hit{s}"), &sizes.hit_module_tokens);
                if workload == Workload::HitClosed {
                    g.import_prompts(
                        &schema,
                        sizes.hit_variants,
                        sizes.hit_suffix_tokens,
                        sizes.short_new_tokens,
                        &mut plan.prompts,
                    );
                }
                plan.schemas.push(schema);
            }
            if workload == Workload::MissClosed {
                let tokens = sizes.hit_prompt_tokens();
                for i in 0..sizes.miss_prompts {
                    let text = g.text(tokens);
                    let schema = &plan.schemas[i % plan.schemas.len()].name;
                    plan.prompts.push(PromptDef {
                        pml: format!("<prompt schema=\"{schema}\">{text}</prompt>"),
                        uncached_text: text,
                        cached_tokens: 0,
                        new_tokens: tokens,
                        max_new_tokens: sizes.miss_new_tokens,
                        baseline: true,
                    });
                }
            }
        }
        Workload::DecodeSaturated => {
            let schema = g.schema("shared".to_owned(), &[sizes.decode_module_tokens]);
            for _ in 0..sizes.decode_prompts {
                let suffix = g.text(sizes.decode_suffix_tokens);
                plan.prompts.push(PromptDef {
                    pml: import_pml(&schema.name, &[0], &suffix),
                    uncached_text: suffix,
                    cached_tokens: schema.tokens,
                    new_tokens: sizes.decode_suffix_tokens,
                    max_new_tokens: sizes.decode_new_tokens,
                    baseline: false,
                });
            }
            plan.schemas.push(schema);
            plan.pace = Pace::Closed {
                outstanding: sizes.decode_outstanding,
            };
        }
        Workload::ChurnOpen => {
            let schedule = churn_schedule(seed, seconds, sizes);
            let total = sizes.churn_schemas + schedule.writes;
            for s in 0..total {
                let schema = g.schema(format!("churn{s}"), &sizes.churn_module_tokens);
                g.import_prompts(
                    &schema,
                    sizes.churn_variants,
                    sizes.churn_suffix_tokens,
                    sizes.short_new_tokens,
                    &mut plan.prompts,
                );
                if s < sizes.churn_schemas {
                    plan.schemas.push(schema);
                } else {
                    plan.fresh.push(schema);
                }
            }
            let live_bytes = sizes.churn_schemas
                * sizes.churn_module_tokens.iter().sum::<usize>()
                * kv_bytes_per_token;
            plan.host_capacity_bytes = (live_bytes as f64 * sizes.churn_host_share) as usize;
            plan.disk_tier = true;
            plan.pace = Pace::Open {
                events: schedule.events,
            };
        }
    }
    plan
}

struct ChurnSchedule {
    events: Vec<Event>,
    writes: usize,
}

/// How far into its slot a read may fall due, as a share of the slot:
/// enough that no two seeds share a schedule, little enough that a write
/// (most of a slot long) is over before the next read is due.
const CHURN_JITTER: f64 = 0.125;

/// An evenly paced open loop: one read per slot of `1 / rate_rps` seconds,
/// placed in its slot by a seeded jitter. Every `write_every`-th read has a
/// write due with it and sent right behind it, which registers the next
/// fresh schema and unregisters the oldest live one while that read is in
/// flight, so the working set slides. Reads pick a live schema by Zipf
/// popularity, never the oldest: it is the next to be unregistered, and a
/// read still in flight when its schema disappears would fail.
///
/// Not Poisson arrivals: on a shared two-vCPU machine the tail of a Poisson
/// open loop is set by which arrivals happen to collide with each other and
/// with the host's other tenants, and did not repeat within a quarter from
/// run to run. With a regular schedule every second of the run asks the same
/// of the system, so the quietest second shows the system (README).
fn churn_schedule(seed: u64, seconds: f64, sizes: &Sizes) -> ChurnSchedule {
    let mut jitter = Rng::fork(seed, "arrivals");
    let mut picks = Rng::fork(seed, "picks");
    let live_count = sizes.churn_schemas;
    let zipf = Zipf::new(live_count - 1, 1.0);
    // Which live slot (1.. = all but the oldest) holds which popularity
    // rank; fixed for the run, so a schema's popularity drifts as it ages.
    let mut slot_of_rank: Vec<usize> = (1..live_count).collect();
    Rng::fork(seed, "popularity").shuffle(&mut slot_of_rank);
    let mut live: VecDeque<usize> = (0..live_count).collect();
    let mut events = Vec::new();
    let mut writes = 0usize;
    let slot_s = 1.0 / sizes.churn_rate_rps;
    for read in 0.. {
        let due_s = (read as f64 + CHURN_JITTER * jitter.unit()) * slot_s;
        if due_s >= seconds {
            break;
        }
        let schema = live[slot_of_rank[zipf.sample(&mut picks)]];
        let variant = picks.below(sizes.churn_variants);
        events.push(Event::Read {
            due_s,
            prompt: schema * sizes.churn_variants + variant,
        });
        if (read + 1) % sizes.churn_write_every == 0 {
            let oldest = live.pop_front().expect("live set is never empty");
            live.push_back(live_count + writes);
            events.push(Event::Write {
                due_s,
                register: writes,
                unregister: format!("churn{oldest}"),
            });
            writes += 1;
        }
    }
    ChurnSchedule { events, writes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_plan(workload: Workload, seed: u64) -> Plan {
        let lexicon = Lexicon::new();
        let tokenizer = lexicon.train_tokenizer();
        plan(
            workload,
            seed,
            2.0,
            &Sizes::quick(),
            &lexicon,
            &tokenizer,
            4096,
        )
    }

    #[test]
    fn same_seed_is_byte_identical_and_another_seed_differs() {
        for workload in Workload::ALL {
            let a = quick_plan(workload, 11);
            let b = quick_plan(workload, 11);
            assert_eq!(a, b, "{}", workload.name());
            let c = quick_plan(workload, 12);
            assert_ne!(a.prompts, c.prompts, "{}", workload.name());
            assert_ne!(a.schemas, c.schemas, "{}", workload.name());
            let (mut sa, mut sb, mut sc) =
                (a.closed_stream(), b.closed_stream(), c.closed_stream());
            let seq = |s: &mut dyn FnMut() -> usize| (0..32).map(|_| s()).collect::<Vec<_>>();
            let (qa, qb, qc) = (seq(&mut sa), seq(&mut sb), seq(&mut sc));
            assert_eq!(qa, qb);
            assert_ne!(qa, qc);
        }
        // Arrival times and the write schedule too.
        let (a, c) = (
            quick_plan(Workload::ChurnOpen, 11),
            quick_plan(Workload::ChurnOpen, 12),
        );
        assert_ne!(a.pace, c.pace);
    }

    #[test]
    fn texts_have_exactly_the_requested_token_counts() {
        let lexicon = Lexicon::new();
        let tokenizer = lexicon.train_tokenizer();
        let sizes = Sizes::quick();
        for seed in [1, 2, 3] {
            let p = plan(
                Workload::HitClosed,
                seed,
                1.0,
                &sizes,
                &lexicon,
                &tokenizer,
                4096,
            );
            let layout = pc_pml::parse_schema(&p.schemas[0].pml).expect("generated schema parses");
            assert_eq!(layout.name, "hit0");
            for prompt in &p.prompts {
                assert_eq!(
                    tokenizer.encode(&prompt.uncached_text).len(),
                    sizes.hit_suffix_tokens
                );
                pc_pml::parse_prompt(&prompt.pml).expect("generated prompt parses");
            }
            let m = plan(
                Workload::MissClosed,
                seed,
                1.0,
                &sizes,
                &lexicon,
                &tokenizer,
                4096,
            );
            for prompt in &m.prompts {
                assert_eq!(
                    tokenizer.encode(&prompt.uncached_text).len(),
                    sizes.hit_prompt_tokens()
                );
            }
        }
    }

    #[test]
    fn churn_schedule_is_paced_writes_behind_every_nth_read_and_never_reads_a_dead_schema() {
        let sizes = Sizes::quick();
        let p = quick_plan(Workload::ChurnOpen, 5);
        let Pace::Open { events } = &p.pace else {
            panic!("churn is open loop")
        };
        assert!(events.len() > 60, "{} events", events.len());
        let slot_s = 1.0 / sizes.churn_rate_rps;
        let mut live: Vec<String> = p.schemas.iter().map(|s| s.name.clone()).collect();
        let mut reads = 0usize;
        let mut last_read_due = f64::NAN;
        for event in events {
            assert!(event.due_s() < 2.0);
            match event {
                Event::Read { due_s, prompt } => {
                    // Each read falls due in the first eighth of its own slot.
                    let into_slot = due_s / slot_s - reads as f64;
                    assert!((0.0..CHURN_JITTER).contains(&into_slot), "{into_slot}");
                    reads += 1;
                    last_read_due = *due_s;
                    let schema = format!("churn{}", prompt / sizes.churn_variants);
                    assert!(live[1..].contains(&schema), "read of {schema}");
                    assert!(p.prompts[*prompt].pml.contains(&format!("\"{schema}\"")));
                }
                Event::Write {
                    due_s,
                    register,
                    unregister,
                } => {
                    assert_eq!(reads % sizes.churn_write_every, 0);
                    assert_eq!(*due_s, last_read_due, "a write is due with its read");
                    assert_eq!(live.remove(0), *unregister, "the oldest goes first");
                    live.push(p.fresh[*register].name.clone());
                }
            }
        }
        assert_eq!(p.fresh.len(), reads / sizes.churn_write_every);
    }
}
