//! Std-only wire protocol for process-mode fleet workers.
//!
//! When [`FleetConfig::process_mode`](crate::FleetConfig::process_mode)
//! is on, each [`Router`](crate::Router) worker is an OS process (the
//! `pc_fleet_worker` binary) speaking this protocol over a loopback
//! `TcpStream`. The framing is deliberately primitive — no external
//! serialization dependency, no schema negotiation:
//!
//! * every message is one **frame**: a little-endian `u32` byte length
//!   followed by that many payload bytes;
//! * payloads are tag-prefixed, field-by-field encodings (fixed-width
//!   little-endian integers, length-prefixed UTF-8 strings) written and
//!   read by the helpers in this module.
//!
//! The router ships an [`EngineBlueprint`] in its `Hello` so every
//! worker deterministically builds *the same engine* — same model
//! weights (seeded), same tokenizer (trained from the same corpus), same
//! engine knobs. That determinism is what makes fleet serving
//! byte-identical to single-process serving even when requests re-route
//! across workers.
//!
//! Process-mode limitations (documented, chaos-tested): cooperative
//! *caller* cancellation does not reach an in-flight remote serve (the
//! serve runs to completion; queue-level sheds still apply), and
//! deadlines cross the wire as the remaining budget at dispatch. Worker
//! kill is process kill — the router detects the broken stream and
//! re-routes.

use std::io::{self, Read, Write};
use std::time::Duration;

use pc_model::{Family, Model, ModelConfig, Parallelism};
use pc_tokenizer::{BpeTokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, EngineError, PromptCache, ServeOutcome};

/// Upper bound on a single frame; a defence against a corrupt length
/// prefix, far above any real message.
const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors (including a closed stream — the signal the
/// router treats as "worker died") and rejects absurd lengths.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------
// field codec

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over a received payload.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn bad(what: &str) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, format!("wire decode: {what}"))
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::bad("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn bool(&mut self) -> io::Result<bool> {
        Ok(self.u8()? != 0)
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| Self::bad("invalid utf-8"))
    }

    fn usize(&mut self) -> io::Result<usize> {
        Ok(self.u64()? as usize)
    }

    /// Reads a `u32` item count, rejecting one the rest of the payload
    /// cannot hold — so a count read off the wire is bounded before
    /// anything is allocated from it. Every counted item takes at least
    /// 4 bytes: a `u32` token, or a string's length prefix.
    fn count(&mut self) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / 4 {
            return Err(Self::bad("item count exceeds payload"));
        }
        Ok(n)
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Self::bad("trailing bytes"))
        }
    }
}

// ---------------------------------------------------------------------
// blueprint

/// Tokenizer recipe: enough to retrain the exact tokenizer in a worker
/// process. Both trainers are deterministic functions of their inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenizerSpec {
    /// `WordTokenizer::train(corpus)`.
    Word {
        /// Training corpus lines.
        corpus: Vec<String>,
    },
    /// `BpeTokenizer::train(corpus, vocab_size)`.
    Bpe {
        /// Training corpus lines.
        corpus: Vec<String>,
        /// Target vocabulary size.
        vocab_size: usize,
    },
}

/// A deterministic recipe for building identical engines across workers:
/// model config + weight seed + tokenizer recipe. `build()` in two
/// different processes yields engines that serve byte-identical responses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EngineBlueprint {
    /// Model architecture and dimensions.
    pub model: ModelConfig,
    /// Seed for the deterministic weight initialisation.
    pub model_seed: u64,
    /// Tokenizer recipe.
    pub tokenizer: TokenizerSpec,
}

impl EngineBlueprint {
    /// A blueprint for engines built with `EngineConfig::default()`.
    #[must_use]
    pub fn new(model: ModelConfig, model_seed: u64, tokenizer: TokenizerSpec) -> Self {
        EngineBlueprint {
            model,
            model_seed,
            tokenizer,
        }
    }

    /// Builds the engine this blueprint describes. Deterministic: every
    /// call, in any process, yields an engine with identical weights,
    /// tokenizer, and serving behaviour.
    #[must_use]
    pub fn build(&self) -> PromptCache {
        let model = Model::new(self.model.clone(), self.model_seed);
        let config = EngineConfig::default();
        match &self.tokenizer {
            TokenizerSpec::Word { corpus } => {
                let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
                PromptCache::new(model, WordTokenizer::train(&refs), config)
            }
            TokenizerSpec::Bpe { corpus, vocab_size } => {
                let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
                PromptCache::new(model, BpeTokenizer::train(&refs, *vocab_size), config)
            }
        }
    }

    fn encode_into(&self, buf: &mut Vec<u8>) {
        let m = &self.model;
        put_u8(buf, family_tag(m.family));
        put_u64(buf, m.vocab_size as u64);
        put_u64(buf, m.hidden_size as u64);
        put_u64(buf, m.num_layers as u64);
        put_u64(buf, m.num_heads as u64);
        put_u64(buf, m.num_kv_heads as u64);
        put_u64(buf, m.intermediate_size as u64);
        put_u64(buf, m.max_position as u64);
        put_f32(buf, m.rope_theta);
        put_f32(buf, m.norm_eps);
        put_u64(buf, m.parallelism.num_threads as u64);
        put_u64(buf, m.parallelism.min_work as u64);
        put_u64(buf, self.model_seed);
        match &self.tokenizer {
            TokenizerSpec::Word { corpus } => {
                put_u8(buf, 0);
                put_u32(buf, corpus.len() as u32);
                for line in corpus {
                    put_str(buf, line);
                }
            }
            TokenizerSpec::Bpe { corpus, vocab_size } => {
                put_u8(buf, 1);
                put_u32(buf, corpus.len() as u32);
                for line in corpus {
                    put_str(buf, line);
                }
                put_u64(buf, *vocab_size as u64);
            }
        }
    }

    fn decode_from(d: &mut Dec<'_>) -> io::Result<Self> {
        let family = family_from_tag(d.u8()?)?;
        let mut model = ModelConfig::llama_tiny(1);
        model.family = family;
        model.vocab_size = d.usize()?;
        model.hidden_size = d.usize()?;
        model.num_layers = d.usize()?;
        model.num_heads = d.usize()?;
        model.num_kv_heads = d.usize()?;
        model.intermediate_size = d.usize()?;
        model.max_position = d.usize()?;
        model.rope_theta = d.f32()?;
        model.norm_eps = d.f32()?;
        model.parallelism = Parallelism {
            num_threads: d.usize()?,
            min_work: d.usize()?,
        };
        let model_seed = d.u64()?;
        let tok_tag = d.u8()?;
        let n = d.count()?;
        let mut corpus = Vec::with_capacity(n);
        for _ in 0..n {
            corpus.push(d.string()?);
        }
        let tokenizer = match tok_tag {
            0 => TokenizerSpec::Word { corpus },
            1 => TokenizerSpec::Bpe {
                corpus,
                vocab_size: d.usize()?,
            },
            t => return Err(Dec::bad(&format!("tokenizer tag {t}"))),
        };
        Ok(EngineBlueprint {
            model,
            model_seed,
            tokenizer,
        })
    }
}

fn family_tag(f: Family) -> u8 {
    match f {
        Family::Llama => 0,
        Family::Falcon => 1,
        Family::Mpt => 2,
        Family::Gpt2 => 3,
    }
}

fn family_from_tag(t: u8) -> io::Result<Family> {
    Ok(match t {
        0 => Family::Llama,
        1 => Family::Falcon,
        2 => Family::Mpt,
        3 => Family::Gpt2,
        _ => return Err(Dec::bad(&format!("family tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// messages

/// Serve options that cross the wire. The deadline is the *remaining*
/// budget at dispatch (the router converted the absolute deadline back
/// to a relative one); a cooperative cancel token cannot cross a process
/// boundary, so in-flight remote serves are interrupted only by killing
/// the worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOptions {
    /// Decode budget.
    pub max_new_tokens: usize,
    /// Seeded sampling temperature (`None` = greedy).
    pub temperature: Option<(f32, u64)>,
    /// Whether scaffolds may substitute (§3.3).
    pub use_scaffolds: bool,
    /// Remaining latency budget at dispatch.
    pub deadline: Option<Duration>,
}

/// Router → worker messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ToWorker {
    /// First frame on the connection: identity plus the engine recipe.
    Hello {
        /// The worker's shard index.
        worker_id: u32,
        /// Recipe for the engine this worker must build.
        blueprint: EngineBlueprint,
    },
    /// Register a schema, warm (encode modules) or cold (layout only).
    Register {
        /// PML schema source.
        pml: String,
        /// Warm or cold registration.
        warm: bool,
    },
    /// Serve one request.
    Serve {
        /// Request id (echoed in the reply).
        id: u64,
        /// PML prompt.
        prompt: String,
        /// Serve options.
        options: WireOptions,
        /// Baseline (full-prefill) path instead of cached serving.
        baseline: bool,
    },
    /// Clean shutdown; the worker exits after acknowledging nothing.
    Shutdown,
}

const TAG_HELLO: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_SERVE: u8 = 3;
const TAG_SHUTDOWN: u8 = 4;
const TAG_READY: u8 = 5;
const TAG_REGISTERED: u8 = 6;
const TAG_RESULT: u8 = 7;
const TAG_SERVE_ERR: u8 = 8;

impl ToWorker {
    /// Encodes to a frame payload.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ToWorker::Hello {
                worker_id,
                blueprint,
            } => {
                put_u8(&mut buf, TAG_HELLO);
                put_u32(&mut buf, *worker_id);
                blueprint.encode_into(&mut buf);
            }
            ToWorker::Register { pml, warm } => {
                put_u8(&mut buf, TAG_REGISTER);
                put_str(&mut buf, pml);
                put_bool(&mut buf, *warm);
            }
            ToWorker::Serve {
                id,
                prompt,
                options,
                baseline,
            } => {
                put_u8(&mut buf, TAG_SERVE);
                put_u64(&mut buf, *id);
                put_str(&mut buf, prompt);
                put_u64(&mut buf, options.max_new_tokens as u64);
                match options.temperature {
                    Some((t, seed)) => {
                        put_bool(&mut buf, true);
                        put_f32(&mut buf, t);
                        put_u64(&mut buf, seed);
                    }
                    None => put_bool(&mut buf, false),
                }
                put_bool(&mut buf, options.use_scaffolds);
                match options.deadline {
                    Some(d) => {
                        put_bool(&mut buf, true);
                        put_u64(&mut buf, d.as_nanos().min(u128::from(u64::MAX)) as u64);
                    }
                    None => put_bool(&mut buf, false),
                }
                put_bool(&mut buf, *baseline);
            }
            ToWorker::Shutdown => put_u8(&mut buf, TAG_SHUTDOWN),
        }
        buf
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown tags or malformed fields.
    pub fn from_frame(payload: &[u8]) -> io::Result<Self> {
        let mut d = Dec::new(payload);
        let msg = match d.u8()? {
            TAG_HELLO => ToWorker::Hello {
                worker_id: d.u32()?,
                blueprint: EngineBlueprint::decode_from(&mut d)?,
            },
            TAG_REGISTER => ToWorker::Register {
                pml: d.string()?,
                warm: d.bool()?,
            },
            TAG_SERVE => {
                let id = d.u64()?;
                let prompt = d.string()?;
                let max_new_tokens = d.usize()?;
                let temperature = if d.bool()? {
                    Some((d.f32()?, d.u64()?))
                } else {
                    None
                };
                let use_scaffolds = d.bool()?;
                let deadline = if d.bool()? {
                    Some(Duration::from_nanos(d.u64()?))
                } else {
                    None
                };
                let baseline = d.bool()?;
                ToWorker::Serve {
                    id,
                    prompt,
                    options: WireOptions {
                        max_new_tokens,
                        temperature,
                        use_scaffolds,
                        deadline,
                    },
                    baseline,
                }
            }
            TAG_SHUTDOWN => ToWorker::Shutdown,
            t => return Err(Dec::bad(&format!("to-worker tag {t}"))),
        };
        d.done()?;
        Ok(msg)
    }
}

/// The serve outcome and accounting a worker reports back. Cumulative
/// store counters piggyback on every result so the router's fleet view
/// stays fresh without a polling RPC.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Echoed request id.
    pub id: u64,
    /// Decoded text.
    pub text: String,
    /// Generated token ids.
    pub tokens: Vec<u32>,
    /// How the serve ended.
    pub outcome: ServeOutcome,
    /// Prompt tokens served from cache.
    pub cached_tokens: u64,
    /// Prompt tokens prefilled fresh.
    pub new_tokens: u64,
    /// Spans that degraded to re-encode.
    pub degraded_spans: u64,
    /// Worker-cumulative store hits.
    pub store_hits: u64,
    /// Worker-cumulative store misses.
    pub store_misses: u64,
}

/// Worker → router messages.
#[derive(Debug, Clone, PartialEq)]
pub enum FromWorker {
    /// Engine built; ready for registrations and serves.
    Ready,
    /// Registration outcome (empty error = success).
    Registered {
        /// Stringified registration error, empty on success.
        error: String,
    },
    /// A completed serve.
    Result(WireResult),
    /// A failed serve.
    ServeErr {
        /// Echoed request id.
        id: u64,
        /// Structured error tag (see `encode_error`).
        error: WireError,
    },
}

/// Engine errors that keep their structure across the wire; everything
/// else degrades to a stringified [`WireError::Other`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// `EngineError::UnknownSchema`.
    UnknownSchema(String),
    /// `EngineError::EmptyPrompt`.
    EmptyPrompt,
    /// Any other engine error, stringified.
    Other(String),
}

impl WireError {
    /// Captures an engine error for transport.
    #[must_use]
    pub fn from_engine(e: &EngineError) -> Self {
        match e {
            EngineError::UnknownSchema { name } => WireError::UnknownSchema(name.clone()),
            EngineError::EmptyPrompt => WireError::EmptyPrompt,
            other => WireError::Other(other.to_string()),
        }
    }

    /// Reconstructs the engine error on the router side.
    #[must_use]
    pub fn into_engine(self) -> EngineError {
        match self {
            WireError::UnknownSchema(name) => EngineError::UnknownSchema { name },
            WireError::EmptyPrompt => EngineError::EmptyPrompt,
            WireError::Other(detail) => EngineError::Remote { detail },
        }
    }
}

fn outcome_tag(o: ServeOutcome) -> u8 {
    match o {
        ServeOutcome::Complete => 0,
        ServeOutcome::Cancelled => 1,
        ServeOutcome::DeadlineExceeded => 2,
    }
}

fn outcome_from_tag(t: u8) -> io::Result<ServeOutcome> {
    Ok(match t {
        0 => ServeOutcome::Complete,
        1 => ServeOutcome::Cancelled,
        2 => ServeOutcome::DeadlineExceeded,
        _ => return Err(Dec::bad(&format!("outcome tag {t}"))),
    })
}

impl FromWorker {
    /// Encodes to a frame payload.
    #[must_use]
    pub fn to_frame(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            FromWorker::Ready => put_u8(&mut buf, TAG_READY),
            FromWorker::Registered { error } => {
                put_u8(&mut buf, TAG_REGISTERED);
                put_str(&mut buf, error);
            }
            FromWorker::Result(r) => {
                put_u8(&mut buf, TAG_RESULT);
                put_u64(&mut buf, r.id);
                put_str(&mut buf, &r.text);
                put_u32(&mut buf, r.tokens.len() as u32);
                for &t in &r.tokens {
                    put_u32(&mut buf, t);
                }
                put_u8(&mut buf, outcome_tag(r.outcome));
                put_u64(&mut buf, r.cached_tokens);
                put_u64(&mut buf, r.new_tokens);
                put_u64(&mut buf, r.degraded_spans);
                put_u64(&mut buf, r.store_hits);
                put_u64(&mut buf, r.store_misses);
            }
            FromWorker::ServeErr { id, error } => {
                put_u8(&mut buf, TAG_SERVE_ERR);
                put_u64(&mut buf, *id);
                match error {
                    WireError::UnknownSchema(name) => {
                        put_u8(&mut buf, 0);
                        put_str(&mut buf, name);
                    }
                    WireError::EmptyPrompt => put_u8(&mut buf, 1),
                    WireError::Other(detail) => {
                        put_u8(&mut buf, 2);
                        put_str(&mut buf, detail);
                    }
                }
            }
        }
        buf
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown tags or malformed fields.
    pub fn from_frame(payload: &[u8]) -> io::Result<Self> {
        let mut d = Dec::new(payload);
        let msg = match d.u8()? {
            TAG_READY => FromWorker::Ready,
            TAG_REGISTERED => FromWorker::Registered { error: d.string()? },
            TAG_RESULT => {
                let id = d.u64()?;
                let text = d.string()?;
                let n = d.count()?;
                let mut tokens = Vec::with_capacity(n);
                for _ in 0..n {
                    tokens.push(d.u32()?);
                }
                FromWorker::Result(WireResult {
                    id,
                    text,
                    tokens,
                    outcome: outcome_from_tag(d.u8()?)?,
                    cached_tokens: d.u64()?,
                    new_tokens: d.u64()?,
                    degraded_spans: d.u64()?,
                    store_hits: d.u64()?,
                    store_misses: d.u64()?,
                })
            }
            TAG_SERVE_ERR => {
                let id = d.u64()?;
                let error = match d.u8()? {
                    0 => WireError::UnknownSchema(d.string()?),
                    1 => WireError::EmptyPrompt,
                    2 => WireError::Other(d.string()?),
                    t => return Err(Dec::bad(&format!("error tag {t}"))),
                };
                FromWorker::ServeErr { id, error }
            }
            t => return Err(Dec::bad(&format!("from-worker tag {t}"))),
        };
        d.done()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blueprint() -> EngineBlueprint {
        EngineBlueprint::new(
            ModelConfig::falcon_tiny(300),
            7,
            TokenizerSpec::Bpe {
                corpus: vec!["hello world".into(), "fleet of workers".into()],
                vocab_size: 280,
            },
        )
    }

    #[test]
    fn to_worker_round_trips() {
        let msgs = [
            ToWorker::Hello {
                worker_id: 3,
                blueprint: blueprint(),
            },
            ToWorker::Register {
                pml: "<schema name=\"s\"/>".into(),
                warm: false,
            },
            ToWorker::Serve {
                id: 42,
                prompt: "<prompt schema=\"s\">hi</prompt>".into(),
                options: WireOptions {
                    max_new_tokens: 9,
                    temperature: Some((0.7, 11)),
                    use_scaffolds: true,
                    deadline: Some(Duration::from_millis(250)),
                },
                baseline: true,
            },
            ToWorker::Shutdown,
        ];
        for msg in msgs {
            let frame = msg.to_frame();
            assert_eq!(ToWorker::from_frame(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn from_worker_round_trips() {
        let msgs = [
            FromWorker::Ready,
            FromWorker::Registered {
                error: String::new(),
            },
            FromWorker::Result(WireResult {
                id: 5,
                text: "ok".into(),
                tokens: vec![1, 2, 3],
                outcome: ServeOutcome::DeadlineExceeded,
                cached_tokens: 10,
                new_tokens: 2,
                degraded_spans: 1,
                store_hits: 4,
                store_misses: 1,
            }),
            FromWorker::ServeErr {
                id: 6,
                error: WireError::UnknownSchema("ghost".into()),
            },
            FromWorker::ServeErr {
                id: 7,
                error: WireError::Other("model: singular".into()),
            },
        ];
        for msg in msgs {
            let frame = msg.to_frame();
            assert_eq!(FromWorker::from_frame(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"beta").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), b"beta");
        assert!(read_frame(&mut r).is_err(), "eof is an error");
    }

    #[test]
    fn oversized_item_counts_are_rejected_before_allocating() {
        // A count of 0xFFFF_FFFF in a frame a few dozen bytes long must be
        // an `InvalidData` error, not a multi-gigabyte `Vec::with_capacity`.
        let mut hello = ToWorker::Hello {
            worker_id: 0,
            blueprint: EngineBlueprint::new(
                ModelConfig::llama_tiny(8),
                1,
                TokenizerSpec::Word { corpus: Vec::new() },
            ),
        }
        .to_frame();
        // An empty word corpus ends the frame with its zero line count.
        let count_at = hello.len() - 4;
        hello[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ToWorker::from_frame(&hello).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut result = vec![TAG_RESULT];
        put_u64(&mut result, 7);
        put_str(&mut result, "");
        put_u32(&mut result, u32::MAX);
        result.extend_from_slice(&[0; 16]);
        let err = FromWorker::from_frame(&result).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wire_errors_reconstruct() {
        let e = EngineError::UnknownSchema { name: "x".into() };
        assert_eq!(WireError::from_engine(&e).into_engine(), e);
        let e = EngineError::EmptyPrompt;
        assert_eq!(WireError::from_engine(&e).into_engine(), e);
        let e = EngineError::InvalidScaffold { detail: "d".into() };
        match WireError::from_engine(&e).into_engine() {
            EngineError::Remote { detail } => assert!(detail.contains("invalid scaffold")),
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn blueprint_builds_identical_engines() {
        let bp = blueprint();
        let a = bp.build();
        let b = bp.build();
        let schema = r#"<schema name="s"><module name="m">hello world</module></schema>"#;
        a.register_schema(schema).unwrap();
        b.register_schema(schema).unwrap();
        let req = prompt_cache::ServeRequest::new(r#"<prompt schema="s"><m/>fleet</prompt>"#)
            .max_new_tokens(4);
        let ra = a.serve(&req).unwrap().into_response();
        let rb = b.serve(&req).unwrap().into_response();
        assert_eq!(ra.tokens, rb.tokens);
        assert_eq!(ra.text, rb.text);
    }
}
