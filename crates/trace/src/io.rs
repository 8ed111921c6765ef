//! Trace readers and writers.
//!
//! Two formats are supported:
//!
//! - **CSV** (`ts_us,id,size` per line, optional `#` comments) — the common
//!   interchange format used by public CDN trace releases (e.g. the
//!   webcachesim/LRB traces use whitespace-separated `ts id size`, which the
//!   reader also accepts).
//! - **Binary** — a compact little-endian record stream (`u64` ts, `u64` id,
//!   `u64` size) with a 16-byte header, for fast reloading of large
//!   generated traces.
//!
//! Both readers work on bytes in bulk (DESIGN.md, "Ingest path"): CSV lines
//! of the plain `digits SEP digits SEP digits` shape are parsed in place in
//! bounded chunk buffers, and every other line goes to the reference line
//! parser, which alone decides what is skipped, what is an error and what
//! the error says. CSV chunks are parsed on every core the process may use
//! and merged in file order; a seam rule keeps the result that of one pass.

use crate::request::{Request, Time, Trace};
use lhr_util::sync::{cores, crew};
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes identifying the binary trace format.
const MAGIC: &[u8; 8] = b"LHRTRC01";

/// Errors arising while parsing a trace.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line or record, with its 1-based line/record number.
    Malformed {
        /// Line (CSV) or record (binary) number, 1-based.
        location: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// Binary header did not match the `LHRTRC01` magic.
    BadMagic,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { location, reason } => {
                write!(f, "malformed record at {location}: {reason}")
            }
            ParseError::BadMagic => write!(f, "not a binary LHR trace (bad magic)"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Parses one CSV/whitespace line into a request, checking time ordering
/// against `prev_ts` (the last accepted request).
///
/// This is the reference parser: [`parse_fast`] takes the common shape off
/// its hands, and every line `parse_fast` declines is judged here.
fn parse_csv_line(line: &str, loc: usize, prev_ts: Time) -> Result<Request, ParseError> {
    let mut fields = line
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|s| !s.is_empty());
    let mut next_u64 = |what: &str| -> Result<u64, ParseError> {
        fields
            .next()
            .ok_or_else(|| ParseError::Malformed {
                location: loc,
                reason: format!("missing field `{what}`"),
            })?
            .parse()
            .map_err(|e| ParseError::Malformed {
                location: loc,
                reason: format!("bad `{what}`: {e}"),
            })
    };
    let ts = Time::from_micros(next_u64("timestamp")?);
    let id = next_u64("id")?;
    let size = next_u64("size")?;
    if ts < prev_ts {
        return Err(ParseError::Malformed {
            location: loc,
            reason: "timestamp goes backwards".into(),
        });
    }
    Ok(Request::new(ts, id, size))
}

/// Size of the CSV reader's chunk buffer at one thread (smaller at more;
/// see [`IN_FLIGHT_TEXT`]). It grows only for a line longer than this,
/// never with the file.
const CSV_CHUNK: usize = 256 * 1024;

/// The longest decimal that cannot overflow a `u64`; longer fields are the
/// reference parser's to judge.
const MAX_FAST_DIGITS: usize = 19;

/// Reads 1–19 ASCII digits at `buf[*i..]`, advancing `*i` past them.
#[inline]
fn fast_digits(buf: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut value = 0u64;
    while let Some(digit) = buf.get(*i).map(|b| b.wrapping_sub(b'0')) {
        if digit > 9 {
            break;
        }
        // Wrapping: a run of 20+ digits is refused below, not trusted.
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
        *i += 1;
    }
    (1..=MAX_FAST_DIGITS)
        .contains(&(*i - start))
        .then_some(value)
}

/// Parses `digits SEP digits SEP digits [\r] \n` at the head of `buf`, SEP
/// being one comma, space or tab, and returns the request and the bytes
/// used, newline included. Anything else — and that includes every line
/// the reference parser would reject — is `None`.
#[inline]
fn parse_fast(buf: &[u8]) -> Option<(Request, usize)> {
    let mut i = 0;
    let mut fields = [0u64; 3];
    for (k, field) in fields.iter_mut().enumerate() {
        if k > 0 {
            if !matches!(buf.get(i), Some(b',' | b' ' | b'\t')) {
                return None;
            }
            i += 1;
        }
        *field = fast_digits(buf, &mut i)?;
    }
    if buf.get(i) == Some(&b'\r') {
        i += 1;
    }
    (buf.get(i) == Some(&b'\n')).then(|| {
        let [ts, id, size] = fields;
        (Request::new(Time::from_micros(ts), id, size), i + 1)
    })
}

/// `Read::read`, retried while it reports `Interrupted`.
fn read_some<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match reader.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// What a CSV read has accepted and skipped so far.
struct CsvState {
    requests: Vec<Request>,
    prev_ts: Time,
    /// Lines seen, comments and blanks included: the 1-based `location`.
    lineno: usize,
    lossy: bool,
    skipped: usize,
}

impl CsvState {
    /// The state at the top of a file, or of a chunk parsed on its own.
    fn new(requests: Vec<Request>, lossy: bool) -> Self {
        CsvState {
            requests,
            prev_ts: Time::ZERO,
            lineno: 0,
            lossy,
            skipped: 0,
        }
    }

    fn accept(&mut self, req: Request) {
        self.prev_ts = req.ts;
        self.requests.push(req);
    }

    /// One line (terminator excluded) that is not of the fast shape, as the
    /// line-at-a-time reader saw it: invalid UTF-8 is an I/O error even
    /// when lossy, blanks and `#` comments pass, the rest is
    /// [`parse_csv_line`]'s.
    fn reference_line(&mut self, line: &[u8]) -> Result<(), ParseError> {
        let line = std::str::from_utf8(line)
            .map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?
            .trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        match parse_csv_line(line, self.lineno, self.prev_ts) {
            Ok(req) => self.accept(req),
            Err(_) if self.lossy => self.skipped += 1,
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Every line of `lines`, which ends with a newline.
    fn terminated_lines(&mut self, lines: &[u8]) -> Result<(), ParseError> {
        let mut pos = 0;
        while pos < lines.len() {
            self.lineno += 1;
            let rest = &lines[pos..];
            match parse_fast(rest) {
                // A backwards timestamp is the reference parser's error.
                Some((req, used)) if req.ts >= self.prev_ts => {
                    self.accept(req);
                    pos += used;
                }
                _ => {
                    let end = rest
                        .iter()
                        .position(|&b| b == b'\n')
                        .expect("`lines` ends with a newline");
                    self.reference_line(&rest[..end])?;
                    pos += end + 1;
                }
            }
        }
        Ok(())
    }

    /// Takes `chunk`, which was parsed from a fresh state, as if this state
    /// had parsed it — the seam rule. Up to its first accepted request a
    /// chunk's lines do not depend on `prev_ts` (a fresh state's `0` turns
    /// no line back), and from that request on both states agree. So its
    /// result stands unless that request goes back before `prev_ts`; then
    /// the chunk is parsed again here.
    fn merge(&mut self, chunk: &mut Chunk) -> Result<(), ParseError> {
        if chunk
            .requests
            .first()
            .is_some_and(|first| first.ts < self.prev_ts)
        {
            return self.terminated_lines(chunk.lines());
        }
        if let Some(err) = chunk.error.take() {
            return Err(match err {
                ParseError::Malformed { location, reason } => ParseError::Malformed {
                    location: self.lineno + location,
                    reason,
                },
                other => other,
            });
        }
        self.requests.extend_from_slice(&chunk.requests);
        if let Some(last) = chunk.requests.last() {
            self.prev_ts = last.ts;
        }
        self.lineno += chunk.lineno;
        self.skipped += chunk.skipped;
        Ok(())
    }
}

/// A CSV source, handed out as runs of whole lines.
struct Lines<R> {
    reader: R,
    /// Bytes a run is read up to before it is cut after its last newline.
    chunk: usize,
    /// The unterminated head of the next line: carried into the next run,
    /// and at the end of input the last line, which has no newline.
    tail: Vec<u8>,
    /// How the input ended, once it has: `Ok`, or the read's error.
    end: Option<io::Result<()>>,
}

impl<R: Read> Lines<R> {
    fn new(reader: R, chunk: usize) -> Self {
        Lines {
            reader,
            chunk: chunk.max(1),
            tail: Vec::new(),
            end: None,
        }
    }

    /// Fills `buf` with the next whole lines — the carried head of a line
    /// first, then reads until `chunk` bytes are in or the input ends, cut
    /// after the last newline — and returns how many bytes they take. The
    /// buffer grows (doubling) only for a line longer than itself. `0`
    /// means the input is done.
    fn next(&mut self, buf: &mut Vec<u8>) -> usize {
        if self.end.is_some() {
            return 0;
        }
        let mut filled = self.tail.len();
        buf.resize(self.chunk.max(2 * filled), 0);
        buf[..filled].copy_from_slice(&self.tail);
        self.tail.clear();
        // `buf[..scanned]` holds no newline. Only new bytes are searched, so
        // a long line stays linear under a dribbling reader.
        let mut scanned = filled;
        let last_newline = |buf: &[u8], scanned: usize| {
            buf[scanned..]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |at| scanned + at + 1)
        };
        loop {
            if filled == buf.len() {
                let end = last_newline(&buf[..filled], scanned);
                if end > 0 {
                    self.tail.extend_from_slice(&buf[end..filled]);
                    return end;
                }
                scanned = filled;
                buf.resize(2 * filled, 0);
            }
            match read_some(&mut self.reader, &mut buf[filled..]) {
                Ok(0) => break self.end = Some(Ok(())),
                Ok(n) => filled += n,
                Err(e) => break self.end = Some(Err(e)),
            }
        }
        let end = last_newline(&buf[..filled], scanned);
        self.tail.extend_from_slice(&buf[end..filled]);
        end
    }
}

/// Reads a CSV trace in bounded chunks, parsed on every core the process
/// may use. `file_len`, when the source has one, sizes the request vector
/// once, from the bytes per request of the first chunk.
fn read_csv_inner<R: Read>(
    reader: R,
    name: impl Into<String>,
    lossy: bool,
    file_len: Option<u64>,
) -> Result<(Trace, usize), ParseError> {
    read_csv_chunked(reader, name, lossy, file_len, CSV_CHUNK, cores())
}

/// [`read_csv_inner`] at a given chunk size and thread count. The calling
/// thread parses the first chunk itself, then hands the rest to
/// [`fan_out`] — on one thread a crew of no helpers, where the caller
/// parses every chunk.
fn read_csv_chunked<R: Read>(
    reader: R,
    name: impl Into<String>,
    lossy: bool,
    file_len: Option<u64>,
    chunk: usize,
    threads: usize,
) -> Result<(Trace, usize), ParseError> {
    let threads = threads.clamp(1, MAX_READ_THREADS);
    let chunk = chunk.min(IN_FLIGHT_TEXT / (IN_FLIGHT_PER_THREAD * threads));
    let mut lines = Lines::new(reader, chunk);
    let mut state = CsvState::new(Vec::new(), lossy);
    let mut text = Vec::new();
    let len = lines.next(&mut text);
    state.terminated_lines(&text[..len])?;
    let seen = state.requests.len();
    if let (Some(file_len), 1..) = (file_len, len) {
        let seen = seen as u128;
        let more = (seen * u128::from(file_len) / len as u128).saturating_sub(seen);
        // A hint: growth on demand covers a refusal or a low estimate.
        let _ = state
            .requests
            .try_reserve_exact(usize::try_from(more).unwrap_or(usize::MAX));
    }
    fan_out(&mut lines, &mut state, text, threads, (seen, len))?;
    if let Some(Err(e)) = lines.end.take() {
        return Err(e.into());
    }
    if !lines.tail.is_empty() {
        state.lineno += 1;
        state.reference_line(&lines.tail)?;
    }
    Ok((Trace::from_requests(name, state.requests), state.skipped))
}

/// Chunks in flight — read and not yet merged — per thread of the reader.
const IN_FLIGHT_PER_THREAD: usize = 2;

/// Bytes of text in flight at most, whatever the core count: a chunk is
/// this shared out over the chunks in flight (256 KiB each on one thread,
/// 128 KiB at two), so what a load holds beside the requests it returns
/// stays near twice this (`tests/ingest_heap.rs`).
const IN_FLIGHT_TEXT: usize = 2 * CSV_CHUNK;

/// The most threads the reader uses. One thread reads every chunk and
/// merges every result, and past a few parsers that is all it does.
const MAX_READ_THREADS: usize = 8;

/// A run of whole lines on its way through [`fan_out`], and what a thread
/// made of it from a fresh [`CsvState`] (line 0, `prev_ts` 0).
#[derive(Default)]
struct Chunk {
    /// The lines are `text[..len]`; the buffer is recycled.
    text: Vec<u8>,
    len: usize,
    requests: Vec<Request>,
    lineno: usize,
    skipped: usize,
    /// The error parsing stopped at, its location counted in the chunk.
    error: Option<ParseError>,
}

impl Chunk {
    fn lines(&self) -> &[u8] {
        &self.text[..self.len]
    }

    /// Parses the lines onto `requests`, which the calling thread cleared.
    fn parse(&mut self, lossy: bool) {
        let mut state = CsvState::new(std::mem::take(&mut self.requests), lossy);
        self.error = state.terminated_lines(self.lines()).err();
        self.requests = state.requests;
        self.lineno = state.lineno;
        self.skipped = state.skipped;
    }
}

/// Reads and parses the rest of the input on `threads` threads: the calling
/// thread reads chunks and submits them to a [`crew`] of `threads - 1`
/// helpers, which parse them, and merges them in file order
/// ([`CsvState::merge`]) as the crew hands them back — parsing a queued
/// chunk itself whenever it would otherwise wait. Every buffer is allocated
/// here and recycled, at most [`IN_FLIGHT_PER_THREAD`] chunks a thread; an
/// input with nothing left spawns nothing. `(requests, bytes)` of the first
/// chunk size the request buffers.
fn fan_out<R: Read>(
    lines: &mut Lines<R>,
    state: &mut CsvState,
    text: Vec<u8>,
    threads: usize,
    (requests, bytes): (usize, usize),
) -> Result<(), ParseError> {
    let slots = IN_FLIGHT_PER_THREAD * threads;
    // Requests a chunk is expected to hold, with an eighth to spare.
    let per_chunk = (requests.saturating_mul(lines.chunk) / bytes.max(1)).saturating_mul(9) / 8;
    let mut chunk = Chunk {
        text,
        ..Chunk::default()
    };
    chunk.len = lines.next(&mut chunk.text);
    if chunk.len == 0 {
        return Ok(());
    }
    let lossy = state.lossy;
    crew(
        threads - 1,
        |_, chunk: &mut Chunk| chunk.parse(lossy),
        |crew| {
            let mut spare: Vec<Chunk> = Vec::new();
            loop {
                if chunk.len > 0 {
                    chunk.requests.clear();
                    chunk.requests.reserve(per_chunk);
                    crew.submit(std::mem::take(&mut chunk));
                }
                if crew.in_flight() < slots && lines.end.is_none() {
                    chunk = spare.pop().unwrap_or_default();
                    chunk.len = lines.next(&mut chunk.text);
                } else {
                    let Some(mut done) = crew.next_done() else {
                        return Ok(());
                    };
                    state.merge(&mut done)?;
                    spare.push(done);
                }
            }
        },
    )
}

/// Reads a CSV/whitespace trace from any reader.
///
/// Each non-empty, non-`#` line must contain three integer fields —
/// `timestamp_us`, `object_id`, `size_bytes` — separated by commas or
/// whitespace. Lines are required to be time-ordered.
pub fn read_csv<R: Read>(reader: R, name: impl Into<String>) -> Result<Trace, ParseError> {
    read_csv_inner(reader, name, false, None).map(|(trace, _)| trace)
}

/// Like [`read_csv`] but skips malformed lines (bad fields, backwards
/// timestamps) instead of failing, returning the trace plus the number of
/// lines skipped. I/O errors still surface as [`ParseError::Io`].
pub fn read_csv_lossy<R: Read>(
    reader: R,
    name: impl Into<String>,
) -> Result<(Trace, usize), ParseError> {
    read_csv_inner(reader, name, true, None)
}

/// Bytes the writers collect before handing them to the sink.
const WRITE_BATCH: usize = 64 * 1024;

/// Writes `head`, then every request as `encode` appends it, in batches of
/// [`WRITE_BATCH`] bytes.
fn write_batched<W: Write>(
    trace: &Trace,
    mut writer: W,
    head: Vec<u8>,
    encode: impl Fn(&mut Vec<u8>, &Request),
) -> io::Result<()> {
    let mut buf = head;
    buf.reserve(WRITE_BATCH);
    for req in trace.iter() {
        encode(&mut buf, req);
        if buf.len() >= WRITE_BATCH {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
    writer.flush()
}

/// Writes a trace as CSV (`ts_us,id,size` lines with a header comment).
pub fn write_csv<W: Write>(trace: &Trace, writer: W) -> io::Result<()> {
    let head = format!(
        "# trace: {}\n# columns: timestamp_us,object_id,size_bytes\n",
        trace.name
    );
    write_batched(trace, writer, head.into_bytes(), |buf, req| {
        // Three 20-digit fields, two commas and a newline at most; filled
        // back to front, so no digit count is needed up front.
        let mut line = [0u8; 63];
        let mut at = line.len();
        for (mut value, terminator) in [
            (req.size, b'\n'),
            (req.id, b','),
            (req.ts.as_micros(), b','),
        ] {
            at -= 1;
            line[at] = terminator;
            loop {
                at -= 1;
                line[at] = b'0' + (value % 10) as u8;
                value /= 10;
                if value == 0 {
                    break;
                }
            }
        }
        buf.extend_from_slice(&line[at..]);
    })
}

/// Opens `path` for [`read_csv_inner`]; the file stem becomes the trace name.
fn read_csv_path(path: &Path, lossy: bool) -> Result<(Trace, usize), ParseError> {
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let file = std::fs::File::open(path)?;
    let len = file.metadata().ok().map(|m| m.len());
    read_csv_inner(file, name, lossy, len)
}

/// Reads a trace from a CSV file; the file stem becomes the trace name.
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Trace, ParseError> {
    read_csv_path(path.as_ref(), false).map(|(trace, _)| trace)
}

/// Reads a CSV file lossily (see [`read_csv_lossy`]); the file stem becomes
/// the trace name.
pub fn read_csv_file_lossy(path: impl AsRef<Path>) -> Result<(Trace, usize), ParseError> {
    read_csv_path(path.as_ref(), true)
}

/// Writes a trace to a CSV file.
pub fn write_csv_file(trace: &Trace, path: impl AsRef<Path>) -> io::Result<()> {
    write_csv(trace, std::fs::File::create(path)?)
}

/// Bytes of one binary record: `ts`, `id`, `size`, each a little-endian `u64`.
const RECORD: usize = 24;

/// Records the binary reader takes per bulk read.
const BINARY_CHUNK: usize = 8 * 1024;

/// Writes a trace in the compact binary format.
pub fn write_binary<W: Write>(trace: &Trace, writer: W) -> io::Result<()> {
    let mut head = MAGIC.to_vec();
    head.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    write_batched(trace, writer, head, |buf, req| {
        buf.extend_from_slice(&req.ts.as_micros().to_le_bytes());
        buf.extend_from_slice(&req.id.to_le_bytes());
        buf.extend_from_slice(&req.size.to_le_bytes());
    })
}

/// Fills `buf` like `read_exact`, but also says how many bytes arrived
/// before the error (end of input included), so a truncated stream can be
/// pinned to a record.
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> (usize, io::Result<()>) {
    let mut filled = 0;
    while filled < buf.len() {
        match read_some(reader, &mut buf[filled..]) {
            Ok(0) => {
                let eof =
                    io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer");
                return (filled, Err(eof));
            }
            Ok(n) => filled += n,
            Err(e) => return (filled, Err(e)),
        }
    }
    (filled, Ok(()))
}

/// Reads a trace in the compact binary format.
///
/// The header's record count is a claim, not a fact: memory is reserved no
/// further ahead than the records already read, a stream that ends early is
/// [`ParseError::Malformed`] at the first missing record, and so are bytes
/// after the last declared one.
pub fn read_binary<R: Read>(mut reader: R, name: impl Into<String>) -> Result<Trace, ParseError> {
    let mut header = [0u8; 16];
    reader.read_exact(&mut header)?;
    let (magic, count) = header.split_at(8);
    if magic != MAGIC {
        return Err(ParseError::BadMagic);
    }
    let declared = u64::from_le_bytes(count.try_into().expect("8 header bytes"));
    // Saturated where `usize` is narrower: such a count fails at the first
    // missing record like any other the payload does not back.
    let count = usize::try_from(declared).unwrap_or(usize::MAX);
    let malformed = |read: usize, reason: String| ParseError::Malformed {
        location: read + 1,
        reason,
    };
    let mut trace = Trace::new(name);
    let mut chunk = vec![0u8; RECORD * BINARY_CHUNK];
    while trace.len() < count {
        let read = trace.len();
        let left = count - read;
        let step = left.min(BINARY_CHUNK);
        if trace.requests.capacity() - read < step {
            // At most as much again as the payload has proven, so the
            // vector doubles on the way and ends exact.
            trace
                .requests
                .try_reserve_exact(left.min(read.max(step)))
                .map_err(|e| malformed(read, format!("header declares {declared} records: {e}")))?;
        }
        let (got, status) = read_full(&mut reader, &mut chunk[..RECORD * step]);
        let records = chunk[..got].chunks_exact(RECORD).map(|rec| {
            let word =
                |k: usize| u64::from_le_bytes(rec[8 * k..][..8].try_into().expect("8-byte word"));
            Request::new(Time::from_micros(word(0)), word(1), word(2))
        });
        trace.requests.extend(records);
        status.map_err(|e| {
            let reason = format!("truncated record: {e} (header declares {declared} records)");
            malformed(trace.len(), reason)
        })?;
    }
    match read_some(&mut reader, &mut chunk[..1])? {
        0 => Ok(trace),
        _ => Err(malformed(
            trace.len(),
            format!("trailing bytes after the declared {declared} records"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// The line-at-a-time reader this module had before the chunked one,
    /// kept as the oracle: `lines()` splits and checks UTF-8, `trim` and
    /// [`parse_csv_line`] do the rest.
    fn read_csv_reference(input: &[u8], lossy: bool) -> Result<(Trace, usize), ParseError> {
        let mut trace = Trace::new("ref");
        let mut prev_ts = Time::ZERO;
        let mut skipped = 0usize;
        for (lineno, line) in BufReader::new(input).lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_csv_line(line, lineno + 1, prev_ts) {
                Ok(req) => {
                    prev_ts = req.ts;
                    trace.requests.push(req);
                }
                Err(_) if lossy => skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((trace, skipped))
    }

    /// Hands out 1–7 bytes per `read`, so every line straddles a chunk
    /// edge, and reports `Interrupted` now and then.
    struct Dribble<'a> {
        data: &'a [u8],
        calls: usize,
    }

    impl<'a> Dribble<'a> {
        fn new(data: &'a [u8]) -> Self {
            Dribble { data, calls: 0 }
        }
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(5) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = (self.calls % 7 + 1).min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A trace whose lines vary in length: timestamps grow from one digit
    /// to eleven, ids and sizes from one to six.
    fn varied(len: usize) -> Trace {
        let mut ts = 0u64;
        let requests = (0..len as u64)
            .map(|i| {
                ts += i * i % 977 * (1 + i / 16);
                Request::new(Time::from_micros(ts), i * 7919 % 1000, 1 + i * 31 % 999_999)
            })
            .collect();
        Trace::from_requests("varied", requests)
    }

    /// Requests, skip count or error text: all a caller can observe.
    fn outcome(
        result: Result<(Trace, usize), ParseError>,
    ) -> Result<(Vec<Request>, usize), String> {
        result
            .map(|(trace, skipped)| (trace.requests, skipped))
            .map_err(|e| e.to_string())
    }

    /// Holds the chunked reader to the reference on `input`: strict and
    /// lossy, in one piece and dribbled, and at each of `chunks` bytes a
    /// chunk on 1, 2 and 8 threads — dribbled too at the first.
    fn assert_matches_reference(input: &[u8], what: &str, chunks: &[usize]) {
        for lossy in [false, true] {
            let expected = outcome(read_csv_reference(input, lossy));
            let whole = outcome(read_csv_inner(input, "ref", lossy, None));
            assert_eq!(whole, expected, "{what}, lossy={lossy}, one piece");
            let dribbled = outcome(read_csv_inner(Dribble::new(input), "ref", lossy, None));
            assert_eq!(dribbled, expected, "{what}, lossy={lossy}, dribbled");
            for (k, &chunk) in chunks.iter().enumerate() {
                for threads in [1, 2, 8] {
                    let got = outcome(read_csv_chunked(input, "ref", lossy, None, chunk, threads));
                    let how = format!("lossy={lossy}, {chunk}-byte chunks, {threads} threads");
                    assert_eq!(got, expected, "{what}, {how}");
                    if k == 0 {
                        let input = Dribble::new(input);
                        let got =
                            outcome(read_csv_chunked(input, "ref", lossy, None, chunk, threads));
                        assert_eq!(got, expected, "{what}, {how}, dribbled");
                    }
                }
            }
        }
    }

    fn sample() -> Trace {
        Trace::from_requests(
            "sample",
            vec![
                Request::new(Time::from_micros(0), 1, 100),
                Request::new(Time::from_micros(5), 2, 2_000),
                Request::new(Time::from_micros(5), 1, 100),
                Request::new(Time::from_micros(9), 3, 30),
            ],
        )
    }

    #[test]
    fn csv_roundtrip() {
        let trace = sample();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let back = read_csv(&buf[..], "sample").unwrap();
        assert_eq!(back.requests, trace.requests);
    }

    #[test]
    fn csv_accepts_whitespace_separated() {
        let text = "# comment\n0 1 100\n5\t2\t2000\n";
        let trace = read_csv(text.as_bytes(), "ws").unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.requests[1],
            Request::new(Time::from_micros(5), 2, 2000)
        );
    }

    #[test]
    fn csv_rejects_backwards_time() {
        let text = "5,1,10\n3,2,10\n";
        let err = read_csv(text.as_bytes(), "bad").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { location: 2, .. }));
    }

    #[test]
    fn csv_rejects_missing_field() {
        let err = read_csv("5,1\n".as_bytes(), "bad").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { location: 1, .. }));
    }

    #[test]
    fn csv_rejects_garbage() {
        let err = read_csv("a,b,c\n".as_bytes(), "bad").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    #[test]
    fn lossy_skips_bad_lines_and_counts_them() {
        let text = "5,1,100\ngarbage\n7,2\n3,9,10\n9,3,30\n";
        let (trace, skipped) = read_csv_lossy(text.as_bytes(), "lossy").unwrap();
        // Bad fields, a short line, and a backwards timestamp all skip.
        assert_eq!(skipped, 3);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.requests[1], Request::new(Time::from_micros(9), 3, 30));
    }

    #[test]
    fn lossy_ordering_tracks_last_accepted_line() {
        // The backwards line is skipped; the next line only needs to be
        // ordered after the last *accepted* timestamp, not the skipped one.
        let text = "10,1,100\n4,2,100\n11,3,100\n";
        let (trace, skipped) = read_csv_lossy(text.as_bytes(), "lossy").unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(trace.len(), 2);
    }

    #[test]
    fn lossy_on_clean_input_matches_strict() {
        let trace = sample();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf).unwrap();
        let (back, skipped) = read_csv_lossy(&buf[..], "sample").unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(back.requests, trace.requests);
    }

    #[test]
    fn binary_roundtrip() {
        let trace = sample();
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        let back = read_binary(&buf[..], "sample").unwrap();
        assert_eq!(back.requests, trace.requests);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOTATRACE_______"[..], "x").unwrap_err();
        assert!(matches!(err, ParseError::BadMagic));
    }

    #[test]
    fn binary_rejects_truncation() {
        let trace = sample();
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        let err = read_binary(&buf[..], "x").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { .. }));
    }

    #[test]
    fn empty_trace_roundtrips_both_formats() {
        let trace = Trace::new("empty");
        let mut csv = Vec::new();
        write_csv(&trace, &mut csv).unwrap();
        assert!(read_csv(&csv[..], "empty").unwrap().is_empty());
        let mut bin = Vec::new();
        write_binary(&trace, &mut bin).unwrap();
        assert!(read_binary(&bin[..], "empty").unwrap().is_empty());
    }

    #[test]
    fn chunked_reader_matches_reference_on_every_odd_line_shape() {
        let mut clean = Vec::new();
        write_csv(&varied(300), &mut clean).unwrap();
        let lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
        let big_comment = format!("#{}", "x".repeat(1 << 20));
        // Each replaces the text of one data line; `{}` stands for that
        // text and `{t}` for its timestamp, so the line stays in order and
        // the odd shape alone decides its fate.
        let mutations: &[(&str, &[u8])] = &[
            ("crlf", b"{}\r"),
            ("double cr", b"{}\r\r"),
            ("leading plus", b"+{}"),
            ("leading and trailing blanks", b"  {} \t"),
            ("trailing comma", b"{},"),
            ("a fourth field", b"{},17"),
            ("tabs and runs of spaces", b"{t}\t 6   7"),
            ("unicode whitespace", "{t}\u{2003}6\u{a0}7".as_bytes()),
            ("cr inside the line", b"{t},6\r,7"),
            ("u64::MAX", b"{t},6,18446744073709551615"),
            ("u64::MAX + 1", b"{t},6,18446744073709551616"),
            ("u64::MAX + 1 as the id", b"{t},18446744073709551616,7"),
            ("twenty digits of value one", b"{t},6,00000000000000000001"),
            ("nineteen nines", b"{t},9999999999999999999,7"),
            ("twenty nines as the timestamp", b"99999999999999999999,6,7"),
            ("non-utf-8 byte", b"{t},6,7\xff"),
            ("non-utf-8 byte in a comment", b"# \xff"),
            ("backwards timestamp", b"0,6,7"),
            ("minus sign", b"-{}"),
            ("two fields", b"{t},6"),
            ("empty field", b"{t},,7"),
            ("words", b"x,y,z"),
            ("blank", b""),
            ("blanks only", b" \t "),
            ("comment", b"# {}"),
            ("a 1 MB comment", big_comment.as_bytes()),
        ];
        let replace = |text: &[u8], mark: &[u8], with: &[u8]| -> Vec<u8> {
            match text.windows(mark.len()).position(|w| w == mark) {
                Some(at) => [&text[..at], with, &text[at + mark.len()..]].concat(),
                None => text.to_vec(),
            }
        };
        // Chunk sizes for the parallel reader: every size from 1 to 64
        // bytes comes up across the inputs, two an input.
        let mut inputs = 0usize;
        for (what, pattern) in mutations {
            // Early, where later lines must still order after it, and last,
            // with and without the final newline.
            for (victim, newline) in [
                (2 + 40, true),
                (lines.len() - 1, true),
                (lines.len() - 1, false),
            ] {
                let chunks = [1 + inputs % 64, 1 + (inputs * 37 + 20) % 64];
                inputs += 1;
                let mut input = Vec::new();
                for (i, line) in lines.iter().enumerate() {
                    if i != victim {
                        input.extend_from_slice(line);
                        continue;
                    }
                    let text = &line[..line.len() - 1];
                    let ts = text.split(|&b| b == b',').next().unwrap();
                    input.extend(replace(&replace(pattern, b"{}", text), b"{t}", ts));
                    if newline {
                        input.push(b'\n');
                    }
                }
                let what = format!("{what} at line {}", victim + 1);
                assert_matches_reference(&input, &what, &chunks);
            }
        }
        assert_matches_reference(&clean, "clean", &[1, 17, 64]);
        assert_matches_reference(b"", "empty input", &[1, 64]);
        assert_matches_reference(b"\n\n", "newlines only", &[1, 64]);
    }

    #[test]
    fn parallel_reader_is_exact_at_every_seam() {
        let long = format!(
            "#{}\n1,2,3\n{:0>19},{:0>19},{:0>19}\n0,1,1\n",
            "z".repeat(90),
            4,
            5,
            6
        );
        let cases: &[(&str, &[u8])] = &[
            // Eight bytes a line: at 8-byte chunks every line opens one.
            (
                "a backwards timestamp opening a chunk",
                b"10,1,10\n05,2,10\n11,3,10\n12,4,10\n",
            ),
            (
                "a backwards timestamp after a malformed line",
                b"10,1,10\nxx,2,10\n05,3,10\n11,4,10\n",
            ),
            (
                "comment and blank runs",
                b"5,1,1\n# a\n\n  \n# b\n#\n\n6,2,2\n\n\n# c\n4,3,3\n7,4,4\n",
            ),
            (
                "crlf lines",
                b"1,1,1\r\n2,2,2\r\n\r\n3,3,3\r\n2,4,4\r\n5,5,5\r\n",
            ),
            ("lines longer than a chunk", long.as_bytes()),
            (
                "invalid UTF-8 after a malformed line",
                b"1,1,1\n2,2\n3,3,3\n4,4,\xff\n5,5,5\n",
            ),
            (
                "a malformed line after a backwards one",
                b"1,1,1\n9,2,2\n3,3,3\n10,4,4\n11,x,5\n12,6,6\n",
            ),
            (
                "an unterminated last line going back",
                b"5,5,5\n6,6,6\n1,1,1",
            ),
        ];
        for (what, input) in cases {
            let chunks: Vec<usize> = (1..=64).collect();
            assert_matches_reference(input, what, &chunks);
        }
    }

    #[test]
    fn chunked_reader_matches_reference_across_real_chunk_edges() {
        // ≈ 1 MB of text: several refills of the 256 KiB buffer, each
        // cutting a line, plus one line longer than the buffer.
        let mut text = Vec::new();
        write_csv(&varied(40_000), &mut text).unwrap();
        assert!(text.len() > 3 * CSV_CHUNK);
        text.extend_from_slice(format!("#{}\n", "y".repeat(CSV_CHUNK + 5)).as_bytes());
        text.extend_from_slice(b"99999999999 1 1\n");
        for lossy in [false, true] {
            let expected = outcome(read_csv_reference(&text, lossy));
            for threads in [1, 2, 8] {
                let got = read_csv_chunked(&text[..], "ref", lossy, None, CSV_CHUNK, threads);
                assert_eq!(outcome(got), expected, "{threads} threads");
            }
        }
        // The file readers size the vector from the file length; the
        // requests are the same, and a wrong length is only a wrong hint.
        let path = std::env::temp_dir().join(format!("lhr-io-chunks-{}.csv", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let from_file = read_csv_file(&path);
        let from_file_lossy = read_csv_file_lossy(&path);
        std::fs::remove_file(&path).unwrap();
        let expected = read_csv_reference(&text, false).unwrap().0.requests;
        assert_eq!(from_file.unwrap().requests, expected);
        assert_eq!(from_file_lossy.unwrap().0.requests, expected);
        for hint in [0, 1, u64::MAX] {
            let hinted = read_csv_inner(&text[..], "ref", false, Some(hint)).unwrap();
            assert_eq!(hinted.0.requests, expected, "hint {hint}");
        }
    }

    #[test]
    fn write_csv_bytes_equal_the_display_form() {
        let mut trace = varied(5_000);
        trace
            .requests
            .push(Request::new(Time::MAX, u64::MAX, u64::MAX));
        trace.requests.insert(0, Request::new(Time::ZERO, 0, 0));
        let mut expected = Vec::new();
        writeln!(expected, "# trace: {}", trace.name).unwrap();
        writeln!(expected, "# columns: timestamp_us,object_id,size_bytes").unwrap();
        for req in trace.iter() {
            writeln!(expected, "{},{},{}", req.ts.as_micros(), req.id, req.size).unwrap();
        }
        assert!(expected.len() > WRITE_BATCH, "must cross a batch edge");
        let mut written = Vec::new();
        write_csv(&trace, &mut written).unwrap();
        assert!(written == expected, "write_csv differs from writeln!");
    }

    #[test]
    fn binary_roundtrips_across_chunks_and_through_a_dribbling_reader() {
        for len in [0, 1, BINARY_CHUNK - 1, BINARY_CHUNK, 2 * BINARY_CHUNK + 3] {
            let trace = varied(len);
            let mut buf = Vec::new();
            write_binary(&trace, &mut buf).unwrap();
            assert_eq!(buf.len(), 16 + RECORD * len);
            let back = read_binary(&buf[..], "x").unwrap();
            assert_eq!(back.requests, trace.requests, "{len} records");
            assert_eq!(back.requests.capacity(), len, "reserved exactly");
            let back = read_binary(Dribble::new(&buf), "x").unwrap();
            assert_eq!(back.requests, trace.requests, "{len} records, dribbled");
        }
    }

    #[test]
    fn binary_truncation_names_the_first_missing_record() {
        let len = BINARY_CHUNK + 100;
        let mut buf = Vec::new();
        write_binary(&varied(len), &mut buf).unwrap();
        // The reason is `read_exact`'s own wording, as before the bulk reads.
        let eof = (&[0u8; 1][..]).read_exact(&mut [0u8; 2]).unwrap_err();
        for (cut, location) in [
            (16, 1),
            (16 + RECORD * len - 1, len),
            (16 + RECORD * 9 + 5, 10),
        ] {
            let err = read_binary(&buf[..cut], "x").unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "malformed record at {location}: truncated record: {eof} \
                     (header declares {len} records)"
                )
            );
        }
        // A cut inside the header is still the header's I/O error.
        assert!(matches!(
            read_binary(&buf[..9], "x"),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        // A count corrupted downwards must not yield a shorter trace.
        let trace = sample();
        let mut buf = Vec::new();
        write_binary(&trace, &mut buf).unwrap();
        buf[8..16].copy_from_slice(&3u64.to_le_bytes());
        let err = read_binary(&buf[..], "x").unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed record at 4: trailing bytes after the declared 3 records"
        );
        buf[8..16].copy_from_slice(&4u64.to_le_bytes());
        buf.push(0);
        let err = read_binary(&buf[..], "x").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { location: 5, .. }));
    }

    #[test]
    fn binary_header_count_is_not_trusted_with_memory() {
        // 2^60 - 1 overflowed `reserve_exact`; 2^44 aborted in the allocator.
        for declared in [(1u64 << 60) - 1, 1 << 44, u64::MAX] {
            for payload in [0, 5, RECORD, 3 * RECORD + 1] {
                let mut buf = MAGIC.to_vec();
                buf.extend_from_slice(&declared.to_le_bytes());
                buf.resize(16 + payload, 7);
                let err = read_binary(&buf[..], "x").unwrap_err();
                let reason = format!("(header declares {declared} records)");
                assert!(
                    matches!(&err, ParseError::Malformed { location, reason: r }
                        if *location == payload / RECORD + 1 && r.ends_with(&reason)),
                    "{err}"
                );
            }
        }
    }
}
