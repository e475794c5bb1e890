//! Byte-fuzz of the wire decoders: `read_request`, `read_response`,
//! `read_response_bytes` and `parse_greeting` fed valid frames mutated
//! by bit flips, truncations and random length prefixes (up to and past
//! `MAX_FRAME`), and pure random bytes, all from in-memory readers.
//!
//! The oracle is a reference decoder written from the frame layout: a
//! decoder never panics, and returns exactly what the reference does —
//! end of stream for an empty input, an error, or the whole payload of
//! the first frame, consumed exactly.
//! A target of its own, because the counting `#[global_allocator]` also
//! bounds what a lying length prefix may make the reader allocate.

use polap_cli::proto::{
    greeting_banner, parse_greeting, read_request, read_response, read_response_bytes, write_frame,
    write_frame_bytes, write_request, MAX_FRAME, PROTO_MAGIC, PROTO_VERSION, STATUS_ERR, STATUS_OK,
    STATUS_QUIT, STATUS_REPL,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The step in which the reader commits payload memory (private to
/// `proto`; its doc promises a lying prefix costs at most one step).
const READ_CHUNK: usize = 64 * 1024;

/// Fuzz cases per decoder family; the seed is fixed, so every run
/// replays the same inputs.
const CASES: usize = 4000;

/// Counts the calling thread's live heap bytes and their high-water
/// mark, so concurrently running tests do not disturb the measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let live = LIVE.get() + delta;
    LIVE.set(live);
    if live > PEAK.get() {
        PEAK.set(live);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters have no bearing on the
// memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with `layout`; passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak heap bytes `f` holds beyond what was live when it started.
fn peak_bytes_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let out = f();
    (out, (PEAK.get() - base) as usize)
}

/// The reference decoder's reading of the first frame in `buf`: `None`
/// for the end of the stream (no byte at all), `Some(Err(()))` for a
/// frame the decoders must refuse (cut anywhere, or over the cap), and
/// `Some(Ok((payload, bytes the frame spans)))` for a whole frame.
fn reference_frame(buf: &[u8]) -> Option<Result<(&[u8], usize), ()>> {
    if buf.is_empty() {
        return None;
    }
    let Some(prefix) = buf.get(..4) else {
        return Some(Err(())); // cut inside the length prefix
    };
    let len = u32::from_be_bytes(prefix.try_into().unwrap()) as usize;
    Some(match buf.get(4..4 + len) {
        Some(payload) if len <= MAX_FRAME => Ok((payload, 4 + len)),
        _ => Err(()),
    })
}

/// Runs `decode` on `buf` through an in-memory reader and holds it to
/// the reference: the same end of stream, the same refusal, or exactly
/// `of_payload` of the whole first frame with exactly its bytes
/// consumed. `of_payload` is `None` where the decoder must refuse a
/// whole frame's payload. A panic fails the test with the input.
fn check<'a, T: PartialEq + std::fmt::Debug>(
    what: &str,
    buf: &'a [u8],
    decode: impl FnOnce(&mut &'a [u8]) -> std::io::Result<Option<T>>,
    of_payload: impl FnOnce(&[u8]) -> Option<T>,
) {
    let mut r = buf;
    let got = catch_unwind(AssertUnwindSafe(|| decode(&mut r)))
        .unwrap_or_else(|_| panic!("{what} panicked on {} bytes: {buf:02x?}", buf.len()))
        .ok();
    let (want, consumed) = match reference_frame(buf) {
        None => (Some(None), 0),
        Some(Err(())) => (None, 0),
        Some(Ok((payload, consumed))) => (of_payload(payload).map(Some), consumed),
    };
    assert_eq!(got, want, "{what} on {buf:02x?}");
    if matches!(want, Some(Some(_))) {
        assert_eq!(buf.len() - r.len(), consumed, "{what} on {buf:02x?}");
    }
}

/// Holds all three frame decoders to the reference on `buf`.
fn check_decoders(buf: &[u8]) {
    let text = |b: &[u8]| std::str::from_utf8(b).ok().map(str::to_owned);
    check("read_request", buf, read_request, text);
    check("read_response_bytes", buf, read_response_bytes, |p| {
        p.split_first()
            .map(|(&status, rest)| (status, rest.to_vec()))
    });
    check("read_response", buf, read_response, |p| {
        let (&status, rest) = p.split_first()?;
        Some((status, text(rest)?))
    });
}

/// A random short text: ASCII, with the odd multi-byte character so
/// flips and cuts land inside UTF-8 sequences too.
fn random_text(rng: &mut StdRng) -> String {
    let n = rng.random_range(0usize..48);
    (0..n)
        .map(|_| match rng.random_range(0u32..20) {
            0 => 'é',
            1 => '→',
            2 => '𝔽',
            _ => char::from(rng.random_range(0x20u8..0x7f)),
        })
        .collect()
}

/// One valid frame of each kind the wire carries, chosen at random.
fn valid_frame(rng: &mut StdRng) -> Vec<u8> {
    let mut buf = Vec::new();
    match rng.random_range(0u32..3) {
        0 => write_request(&mut buf, &random_text(rng)).unwrap(),
        1 => {
            let status = [STATUS_OK, STATUS_ERR, STATUS_QUIT][rng.random_range(0usize..3)];
            write_frame(&mut buf, status, &random_text(rng)).unwrap();
        }
        _ => {
            let n = rng.random_range(0usize..64);
            let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0u8..=255)).collect();
            write_frame_bytes(&mut buf, STATUS_REPL, &bytes).unwrap();
        }
    }
    buf
}

/// A length prefix from the interesting ranges: tiny, near the cap on
/// either side, and far past it.
fn random_len(rng: &mut StdRng) -> u32 {
    let cap = MAX_FRAME as u32;
    match rng.random_range(0u32..5) {
        0 => rng.random_range(0u32..80),
        1 => rng.random_range(cap - 2..=cap + 2),
        2 => rng.random_range(0u32..=cap),
        3 => rng.random_range(cap..=u32::MAX),
        _ => u32::MAX,
    }
}

/// `frame` mutated one way: bit flips, a cut, a new length prefix, or
/// a second frame appended (which the decoder must leave unread).
fn mutate(rng: &mut StdRng, mut frame: Vec<u8>) -> Vec<u8> {
    match rng.random_range(0u32..4) {
        0 => {
            for _ in 0..rng.random_range(1u32..=3) {
                let i = rng.random_range(0usize..frame.len());
                frame[i] ^= 1 << rng.random_range(0u32..8);
            }
        }
        1 => frame.truncate(rng.random_range(0usize..frame.len())),
        2 => frame[..4].copy_from_slice(&random_len(rng).to_be_bytes()),
        _ => {
            let next = valid_frame(rng);
            frame.extend_from_slice(&next);
        }
    }
    frame
}

#[test]
fn unmutated_frames_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for _ in 0..CASES {
        let text = random_text(&mut rng);
        let mut buf = Vec::new();
        write_request(&mut buf, &text).unwrap();
        write_frame(&mut buf, STATUS_OK, &text).unwrap();
        write_frame_bytes(&mut buf, STATUS_REPL, text.as_bytes()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_request(&mut r).unwrap(), Some(text.clone()));
        assert_eq!(
            read_response(&mut r).unwrap(),
            Some((STATUS_OK, text.clone()))
        );
        assert_eq!(
            read_response_bytes(&mut r).unwrap(),
            Some((STATUS_REPL, text.clone().into_bytes()))
        );
        assert!(r.is_empty());
        assert_eq!(parse_greeting(&greeting_banner(&text)).unwrap(), text);
        check_decoders(&valid_frame(&mut rng));
    }
}

#[test]
fn mutated_frames_decode_as_the_reference_or_err() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for _ in 0..CASES {
        let frame = valid_frame(&mut rng);
        let buf = mutate(&mut rng, frame);
        check_decoders(&buf);
    }
}

#[test]
fn random_bytes_decode_as_the_reference_or_err() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for _ in 0..CASES {
        let n = rng.random_range(0usize..40);
        let mut buf: Vec<u8> = (0..n).map(|_| rng.random_range(0u8..=255)).collect();
        // Half the inputs get a prefix small enough to be satisfiable.
        if n >= 4 && rng.random_bool(0.5) {
            let len = rng.random_range(0..=n as u32 - 4);
            buf[..4].copy_from_slice(&len.to_be_bytes());
        }
        check_decoders(&buf);
    }
}

/// `parse_greeting` accepts a banner only as `magic/version text` with
/// this build's version, and then returns exactly the text after the
/// separating space.
#[test]
fn mutated_greetings_parse_only_when_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for _ in 0..CASES {
        let banner = greeting_banner(&random_text(&mut rng));
        let mut bytes = banner.clone().into_bytes();
        match rng.random_range(0u32..3) {
            0 => {
                let i = rng.random_range(0usize..bytes.len());
                bytes[i] ^= 1 << rng.random_range(0u32..8);
            }
            1 => bytes.truncate(rng.random_range(0usize..bytes.len())),
            _ => {
                let n = rng.random_range(0usize..24);
                bytes = (0..n).map(|_| rng.random_range(0u8..=255)).collect();
            }
        }
        let s = String::from_utf8_lossy(&bytes);
        let got = catch_unwind(|| parse_greeting(&s).map(str::to_owned))
            .unwrap_or_else(|_| panic!("parse_greeting panicked on {s:?}"));
        let Ok(text) = got else { continue };
        let version = s
            .strip_prefix(PROTO_MAGIC)
            .and_then(|r| r.strip_prefix('/'))
            .and_then(|r| r.strip_suffix(text.as_str()))
            .map(|v| v.strip_suffix(' ').unwrap_or(v))
            .unwrap_or_else(|| panic!("{s:?} parsed to {text:?}"));
        assert!(!version.contains(' '), "{s:?} parsed to {text:?}");
        assert_eq!(version.parse::<u8>(), Ok(PROTO_VERSION), "{s:?}");
    }
}

/// A frame decoder reduced to "did it refuse this input".
type Refuses = fn(&[u8]) -> bool;

/// Each frame decoder, by name.
const DECODERS_ERR: [(&str, Refuses); 3] = [
    ("read_request", |mut b| read_request(&mut b).is_err()),
    ("read_response", |mut b| read_response(&mut b).is_err()),
    ("read_response_bytes", |mut b| {
        read_response_bytes(&mut b).is_err()
    }),
];

/// A header that claims far more than the body holds errs without
/// committing the claimed length: the reader holds at most the body
/// plus one `READ_CHUNK` step, up to `Vec`'s doubling of its capacity.
#[test]
fn a_lying_length_prefix_allocates_about_the_body_not_the_claim() {
    for claim in [MAX_FRAME, MAX_FRAME - 1, 8 * READ_CHUNK + 3] {
        for body in [
            0,
            1,
            4095,
            READ_CHUNK - 1,
            READ_CHUNK + 1,
            2 * READ_CHUNK + 5,
        ] {
            let mut buf = (claim as u32).to_be_bytes().to_vec();
            buf.resize(4 + body, b'x');
            let bound = 2 * (body + READ_CHUNK) + 4096;
            for (what, errs) in DECODERS_ERR {
                let (erred, peak) = peak_bytes_of(|| errs(&buf));
                assert!(erred, "claim {claim}, body {body}: {what} did not err");
                assert!(peak <= bound, "{what} held {peak} B for a {body} B body");
            }
        }
    }
    // Past the cap, the reader errs before allocating any payload.
    let buf = (MAX_FRAME as u32 + 1).to_be_bytes();
    for (what, errs) in DECODERS_ERR {
        let (erred, peak) = peak_bytes_of(|| errs(&buf));
        assert!(erred, "{what} took an over-cap prefix");
        assert!(
            peak <= 4096,
            "{what} allocated {peak} B for an over-cap prefix"
        );
    }
}
