//! The text SCORE codec: one writer (`write_score_request` over
//! `write_numbers`) and one parser (`parse_request`).
//!
//! * **Byte identity** — a frame is byte-for-byte the line the protocol
//!   has always carried, `format!("SCORE {model} {}", …join(" "))` plus the
//!   optional trace token and the newline, for any `f64` bit pattern.
//! * **Round trip** — parsing an encoded frame gives the features back
//!   bit-exactly.
//! * **Hostile lines** — seeded junk never panics the parser, and every
//!   rejection renders as a short single-line `ERR`; so does junk in the
//!   counted payload of a `PUSH` or `SYNC`, which a server parses further.
//! * **Allocation budget** — counted by a global allocator local to this
//!   test binary: encoding into a warmed buffer allocates nothing, a parse
//!   allocates the name and the feature vector, a response one `String`.
//!
//! Run: `cargo test --release -q --test wire_codec -- --nocapture`.

use pfr::serve::error::ServeError;
use pfr::serve::protocol::{
    err_response, format_numbers, parse_request, push_trace_token, score_response,
    write_score_request, Request, MAX_ECHO, MAX_ERR_BYTES,
};
use pfr::serve::{Server, ServerConfig};
use proptest::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Counts allocations (and reallocations) made by the current thread, so
/// tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The line as the protocol rendered it before the one writer existed.
fn reference(model: &str, values: &[f64], trace: Option<u64>) -> String {
    let mut line = format!(
        "SCORE {model} {}",
        values
            .iter()
            .map(|x| format!("{x}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(id) = trace {
        line.push(' ');
        line.push_str(&pfr::obs::trace_token(id));
    }
    line.push('\n');
    line
}

fn encode(model: &str, values: &[f64], trace: Option<u64>) -> String {
    let mut frame = String::new();
    write_score_request(&mut frame, model, values, trace);
    frame
}

/// Edge values every vector may draw from besides random bit patterns.
const SPECIAL: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    5e-324,
    -2.2250738585072e-308,
    1e300,
    -1e300,
    1e-300,
    f64::MAX,
    f64::MIN,
    f64::EPSILON,
    0.1,
];

fn random_vector(rng: &mut TestRng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.next_u64() % 4 {
            0 => SPECIAL[(rng.next_u64() % SPECIAL.len() as u64) as usize],
            1 => rng.next_f64() * 4.0 - 2.0,
            _ => f64::from_bits(rng.next_u64()),
        })
        .collect()
}

fn random_trace(rng: &mut TestRng) -> Option<u64> {
    (rng.next_u64().is_multiple_of(2)).then(|| rng.next_u64().max(1))
}

#[test]
fn frames_are_byte_identical_to_the_reference_line() {
    let mut rng = TestRng::from_name("frames_are_byte_identical_to_the_reference_line");
    for row in 0..1024 {
        let len = 1 + (rng.next_u64() % 128) as usize;
        let values = random_vector(&mut rng, len);
        let trace = random_trace(&mut rng);
        assert_eq!(
            encode("risk", &values, trace),
            reference("risk", &values, trace),
            "row {row}"
        );
    }
    // Non-finite values encode as the reference does too: the writer
    // renders, the parser is the one that refuses.
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    assert_eq!(encode("m", &odd, None), reference("m", &odd, None));
    assert_eq!(encode("m", &[], None), reference("m", &[], None));
}

#[test]
fn parse_of_an_encoded_frame_is_bit_exact() {
    let mut rng = TestRng::from_name("parse_of_an_encoded_frame_is_bit_exact");
    for row in 0..1024 {
        let len = 1 + (rng.next_u64() % 128) as usize;
        let values: Vec<f64> = random_vector(&mut rng, len)
            .into_iter()
            .map(|v| if v.is_finite() { v } else { 1.5 })
            .collect();
        let trace = random_trace(&mut rng);
        let frame = encode("risk", &values, trace);
        let Request::Score {
            name,
            features,
            trace: parsed_trace,
        } = parse_request(frame.trim_end()).unwrap()
        else {
            panic!("row {row}: not a SCORE");
        };
        assert_eq!(name, "risk");
        assert_eq!(parsed_trace, trace, "row {row}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&features), bits(&values), "row {row}");
    }
}

/// Tokens hostile lines are assembled from.
const JUNK: [&str; 24] = [
    "1",
    "-0",
    "1.5e3",
    "1.",
    ".5",
    "-",
    "1e",
    "e5",
    "NaN",
    "inf",
    "-infinity",
    "T=",
    "T=zz",
    "T=0000000000000000",
    "T=00000000000000aa",
    "t=00000000000000aa",
    "é",
    "∞",
    "１",
    "\u{a0}",
    "\t",
    "",
    "0x10",
    "1_000",
];

const VERBS: [&str; 8] = [
    "SCORE",
    "score",
    "ScOrE",
    "TRANSFORM",
    "PUSH",
    "SYNC",
    "TRACE",
    "CATALOG",
];

/// Every rejection renders as one short line, whatever it quotes.
fn assert_bounded(line: &str, err: &ServeError) {
    let response = err_response(err);
    assert!(response.starts_with("ERR "), "{response}");
    assert!(!response.contains('\n'), "{response}");
    assert!(
        response.len() <= 96 + MAX_ECHO,
        "a {}-byte ERR line for a {}-byte request",
        response.len(),
        line.len()
    );
}

#[test]
fn hostile_lines_are_rejected_not_panicked_on() {
    let mut rng = TestRng::from_name("hostile_lines_are_rejected_not_panicked_on");
    let pick = |rng: &mut TestRng, from: &[&'static str]| {
        from[(rng.next_u64() % from.len() as u64) as usize]
    };
    for _ in 0..20_000 {
        let mut line = String::from(pick(&mut rng, &VERBS));
        for _ in 0..rng.next_u64() % 12 {
            line.push(if rng.next_u64().is_multiple_of(8) {
                '\t'
            } else {
                ' '
            });
            let token = pick(&mut rng, &JUNK);
            // Split a token in two now and then: `1.` `5` instead of `1.5`.
            if rng.next_u64().is_multiple_of(6) && token.len() > 1 && token.is_char_boundary(1) {
                line.push_str(&token[..1]);
                line.push(' ');
                line.push_str(&token[1..]);
            } else {
                line.push_str(token);
            }
        }
        match parse_request(&line) {
            Ok(Request::Score { features, .. } | Request::Transform { features, .. }) => {
                assert!(!features.is_empty(), "'{line}'");
                assert!(features.iter().all(|v| v.is_finite()), "'{line}'");
            }
            Ok(_) => {}
            Err(err) => assert_bounded(&line, &err),
        }
    }
    let long_junk = "7".repeat(1 << 20) + "z";
    let many = format!("SCORE risk {}", vec!["0.25"; 100_000].join(" "));
    for line in [
        String::new(),
        "SCORE".to_string(),
        "SCORE  \t ".to_string(),
        "SCORE risk T=00000000000000aa".to_string(),
        "SCORE T=00000000000000aa".to_string(),
        "PUSH T=00000000000000aa".to_string(),
        format!("SCORE risk {long_junk}"),
        format!("SCORE risk 1 {long_junk} T=00000000000000aa"),
        format!("{long_junk} 1"),
        format!("SCORE risk {}", "é".repeat(1 << 18)),
        format!("{many} NaN"),
    ] {
        match parse_request(&line) {
            Ok(request) => panic!("'{}…' parsed as {request:?}", &line[..line.len().min(40)]),
            Err(err) => assert_bounded(&line, &err),
        }
    }
    match parse_request(&many).unwrap() {
        Request::Score { features, .. } => assert_eq!(features.len(), 100_000),
        other => panic!("{other:?}"),
    }

    // A counted payload is parsed past the codec — as a bundle, as a
    // catalog — and those parsers quote the line they reject.
    let server = Server::spawn(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for header in ["PUSH risk", "SYNC"] {
        for payload in [
            "7".repeat(1 << 20),
            format!("pfr-bundle-v1\n@{long_junk}\n"),
            "é".repeat(1 << 19),
        ] {
            write!(writer, "{header} {}\n{payload}", payload.len()).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let response = response.trim_end();
            assert!(response.starts_with("ERR "), "{header}: {response}");
            assert!(
                response.len() <= MAX_ERR_BYTES,
                "{header}: a {}-byte ERR line for a {}-byte payload",
                response.len(),
                payload.len()
            );
        }
    }
    server.shutdown();
}

#[test]
fn the_codec_stays_within_its_allocation_budget() {
    let mut rng = TestRng::from_name("the_codec_stays_within_its_allocation_budget");
    let values: Vec<f64> = (0..96).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
    let mut buffer = String::new();
    write_score_request(&mut buffer, "bench", &values, None);
    let line = buffer.trim_end().to_string();

    buffer.clear();
    let ((), encode) = allocations(|| write_score_request(&mut buffer, "bench", &values, None));
    let (request, parse) = allocations(|| parse_request(&line).unwrap());
    let (response, respond) = allocations(|| score_response(0.123456789012345, true));
    let (_, traced) = allocations(|| {
        let mut response = score_response(0.123456789012345, false);
        push_trace_token(&mut response, u64::MAX);
        response
    });
    let (_, numbers) = allocations(|| format_numbers(&values));
    println!(
        "allocations: encode {encode}, parse {parse}, response {respond} \
         ({traced} with a trace echo), format_numbers {numbers}"
    );
    assert!(matches!(request, Request::Score { .. }));
    assert_eq!(response, "OK 0.123456789012345 1");
    assert_eq!(encode, 0, "encoding into a warmed buffer");
    assert!(parse <= 2, "parse_request made {parse} allocations");
    assert!(respond <= 1, "a SCORE response made {respond} allocations");
    assert!(
        traced <= 1,
        "a traced SCORE response made {traced} allocations"
    );
    assert!(numbers <= 1, "format_numbers made {numbers} allocations");
}
