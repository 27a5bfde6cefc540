//! Negative-input hardening for the hand-rolled parsers: a malformed
//! `RunReport` JSON document, topology-schedule script, scenario file or
//! `nectar-node-report v1` block must come back as an `Err`, never a
//! panic — persisted reports, `--schedule` arguments and the reports a
//! socket fleet prints across process boundaries are exactly the inputs
//! that arrive damaged (truncated copies, editor mangling, wrong file
//! entirely). The property tests mutate *valid* documents at random
//! positions, which probes the parser states a hand-written grammar
//! actually reaches, unlike purely random bytes.

use proptest::prelude::*;

use nectar::prelude::*;
use nectar::protocol::{sync_fleet_reports, NodeReport};
use nectar_experiments::matrix::{CastSpec, FamilySpec, MatrixReport, MatrixSpec};

fn sample_report_json(with_schedule: bool) -> String {
    let scenario = Scenario::new(gen::cycle(6), 1).with_key_seed(9);
    let sim = scenario.sim();
    let sim = if with_schedule {
        sim.schedule(
            TopologySchedule::new()
                .drop_edge(1, 0, 1)
                .drop_edge(1, 3, 4)
                .heal_edge(3, 0, 1)
                .heal_edge(3, 3, 4),
        )
    } else {
        sim
    };
    sim.run().to_json()
}

/// A small but real matrix sweep — the fuzz corpus for the MatrixReport
/// JSON reader (two cells, every counter populated).
fn sample_matrix_report() -> MatrixReport {
    MatrixSpec {
        families: vec![FamilySpec::Harary { k: 2 }],
        sizes: vec![8],
        casts: vec![CastSpec::Honest, CastSpec::SilentCut],
        t: 1,
        trials: 2,
        base_seed: 11,
        runtime: Runtime::Sync,
    }
    .run()
    .expect("sample spec is in domain")
}

/// A real node report block: node 0 of a Byzantine cut fleet, with
/// accepted edges and a delivery log.
fn sample_node_report() -> String {
    let scenario = Scenario::new(gen::cycle(6), 2)
        .with_key_seed(9)
        .with_byzantine(3, ByzantineBehavior::Silent);
    sync_fleet_reports(&scenario).0[&0].to_text()
}

const SAMPLE_SCRIPT: &str = "\
# a busy but valid script
seed 42
drop 1 0 1
heal 3 0 1
crash 2 4
rejoin 4 4
partition 2 0 1 2
heal-partition 3 0 1 2
loss 1 2 1..4 0.25
loss-one-way 2 3 2..3 1.0
delay 0 1 1..5 2
delay-one-way 4 5 1..2 1
";

/// One mutation of a text document, chosen by `(kind, pos, payload)`.
/// Everything stays valid UTF-8 so the parsers see a `&str`, as they
/// would from `fs::read_to_string`.
fn mutate(doc: &str, kind: usize, pos: usize, payload: u8) -> String {
    let bytes = doc.as_bytes();
    let at = pos % doc.len().max(1);
    // Steer to a char boundary so slicing stays valid UTF-8 (these
    // documents are ASCII, but stay robust).
    let mut at = at.min(bytes.len());
    while at > 0 && !doc.is_char_boundary(at) {
        at -= 1;
    }
    let printable = char::from(b' ' + payload % 95);
    match kind % 5 {
        // Truncate.
        0 => doc[..at].to_string(),
        // Delete one character.
        1 => {
            let mut s = String::with_capacity(doc.len());
            s.push_str(&doc[..at]);
            let rest = &doc[at..];
            let mut chars = rest.chars();
            chars.next();
            s.push_str(chars.as_str());
            s
        }
        // Insert a printable character.
        2 => format!("{}{printable}{}", &doc[..at], &doc[at..]),
        // Replace one character.
        3 => {
            let rest = &doc[at..];
            let mut chars = rest.chars();
            chars.next();
            format!("{}{printable}{}", &doc[..at], chars.as_str())
        }
        // Duplicate a slice (unbalances brackets/quotes wholesale).
        _ => {
            let end = (at + 1 + payload as usize).min(doc.len());
            let mut end = end;
            while end > at && !doc.is_char_boundary(end) {
                end -= 1;
            }
            format!("{}{}{}", &doc[..at], &doc[at..end], &doc[at..])
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `RunReport::from_json` on a damaged report: `Ok` (the damage was
    /// cosmetic) or `Err` with a message — any panic fails this test.
    #[test]
    fn mutated_report_json_never_panics(
        with_schedule in proptest::bool::ANY,
        muts in proptest::collection::vec((0usize..5, 0usize..100_000, 0u8..255), 1..4),
    ) {
        let mut doc = sample_report_json(with_schedule);
        for (kind, pos, payload) in muts {
            doc = mutate(&doc, kind, pos, payload);
        }
        if let Err(e) = RunReport::from_json(&doc) {
            prop_assert!(!e.is_empty(), "error message must say something");
        }
    }

    /// `MatrixReport::from_json` on a damaged matrix report: `Ok` or a
    /// non-empty `Err`, never a panic.
    #[test]
    fn mutated_matrix_json_never_panics(
        muts in proptest::collection::vec((0usize..5, 0usize..100_000, 0u8..255), 1..4),
    ) {
        let mut doc = sample_matrix_report().to_json();
        for (kind, pos, payload) in muts {
            doc = mutate(&doc, kind, pos, payload);
        }
        if let Err(e) = MatrixReport::from_json(&doc) {
            prop_assert!(!e.is_empty(), "error message must say something");
        }
    }

    /// `TopologySchedule::parse` (and, when parsing survives, `compile`
    /// against the base graph) on a damaged script: error or success,
    /// never a panic.
    #[test]
    fn mutated_schedule_scripts_never_panic(
        muts in proptest::collection::vec((0usize..5, 0usize..10_000, 0u8..255), 1..4),
    ) {
        let mut doc = SAMPLE_SCRIPT.to_string();
        for (kind, pos, payload) in muts {
            doc = mutate(&doc, kind, pos, payload);
        }
        if let Ok(schedule) = TopologySchedule::parse(&doc) {
            // A mutated-but-parseable script may still be inconsistent
            // with the topology; compile must reject it gracefully.
            let _ = schedule.compile(&gen::cycle(6));
        } else {
            let err = TopologySchedule::parse(&doc).unwrap_err();
            prop_assert!(!err.to_string().is_empty());
        }
    }

    /// `NodeReport::parse` on a damaged report block: `Ok` or a non-empty
    /// `Err`, never a panic.
    #[test]
    fn mutated_node_reports_never_panic(
        muts in proptest::collection::vec((0usize..5, 0usize..10_000, 0u8..255), 1..4),
    ) {
        let mut doc = sample_node_report();
        for (kind, pos, payload) in muts {
            doc = mutate(&doc, kind, pos, payload);
        }
        if let Err(e) = NodeReport::parse(&doc) {
            prop_assert!(!e.to_string().is_empty(), "error message must say something");
        }
    }
}

/// Targeted malformed node reports: each must be a parse *error*. A count
/// near `u64::MAX` once reached `Vec::with_capacity` and panicked.
#[test]
fn malformed_node_reports_error_out() {
    let valid = sample_node_report();
    let edges = valid.lines().find(|l| l.starts_with("edges ")).unwrap();
    let deliveries = valid.lines().find(|l| l.starts_with("deliveries ")).unwrap();
    let cases: Vec<String> = vec![
        String::new(),
        valid.replace("nectar-node-report v1", "nectar-node-report v2"),
        valid[..valid.len() / 2].to_string(),
        valid.replace(edges, "edges 18000000000000000000"),
        valid.replace(deliveries, "deliveries 18000000000000000000"),
        valid.replace(edges, "edges -1"),
        valid.replacen("\nedge ", "\nedge 1 ", 1),
        valid.replace("end\n", "end now\n"),
    ];
    for (i, case) in cases.iter().enumerate() {
        assert_ne!(case, &valid, "case {i} damaged nothing");
        let got = NodeReport::parse(case);
        assert!(got.is_err(), "case {i} parsed as {got:?}");
    }
}

/// Targeted malformed reports: each of these must be a parse *error* —
/// not a panic, and not a silent `Ok`.
#[test]
fn malformed_reports_error_out() {
    let valid = sample_report_json(true);
    let half = &valid[..valid.len() / 2];
    let cases: Vec<String> = vec![
        String::new(),
        "{".into(),
        "null".into(),
        "[1, 2, 3]".into(),
        half.to_string(),
        valid.replace("\"version\": 3", "\"version\": 99"),
        valid.replace("\"n\":", "\"m\":"),
        valid.replace("\"transitions\"", "\"transitiuns\""),
        // A transition quad that is not a quad.
        valid.replace("[1, 0, 1, false]", "[1, 0, 1]"),
        // Type confusion inside the schedule record.
        valid.replace("\"script\": \"", "\"script\": 3, \"x\": \""),
        // A report saved by the retired thread-per-node runtime.
        valid.replace("\"runtime\": \"sync\"", "\"runtime\": \"threaded\""),
        // Per-node metric vectors of unequal lengths (these reached an
        // assert in `Metrics::from_parts`).
        valid.replace("\"msgs_sent\": [", "\"msgs_sent\": [7, "),
        // A topology too large to allocate (once a capacity-overflow
        // panic), and one that disagrees with the report's n.
        valid.replace("\"topology\": {\"n\": 6", "\"topology\": {\"n\": 1000000000000000000"),
        valid.replace("\"topology\": {\"n\": 6", "\"topology\": {\"n\": 7"),
        // No epochs: every accessor reads the last one (once a panic on
        // the first `decisions()` or `agreement()` after loading).
        format!("{}\"epochs\": []\n}}", &valid[..valid.find("\"epochs\": [").unwrap()]),
    ];
    for (i, case) in cases.iter().enumerate() {
        let got = RunReport::from_json(case);
        assert!(got.is_err(), "case {i} parsed as {:?}", got.map(|r| r.n));
    }
}

/// Targeted malformed matrix reports: each must be a parse *error* — not
/// a panic, and not a silent `Ok`.
#[test]
fn malformed_matrix_reports_error_out() {
    let valid = sample_matrix_report().to_json();
    let half = &valid[..valid.len() / 2];
    let json_cases: Vec<String> = vec![
        String::new(),
        "{".into(),
        "null".into(),
        "[1, 2, 3]".into(),
        half.to_string(),
        // Version skew must be refused, not misread.
        valid.replace("\"version\": 1", "\"version\": 99"),
        // A renamed field is a missing field.
        valid.replace("\"cells\"", "\"cels\""),
        valid.replace("\"trials\"", "\"trails\""),
        // Type confusion: a stats object where a counter should be.
        valid.replace("\"detected\": 0", "\"detected\": \"zero\""),
        // An unknown runtime name in the provenance header.
        valid.replace("\"runtime\": \"sync\"", "\"runtime\": \"warp\""),
    ];
    for (i, case) in json_cases.iter().enumerate() {
        let got = MatrixReport::from_json(case);
        assert!(got.is_err(), "JSON case {i} parsed as {:?}", got.map(|r| r.cells.len()));
    }
}

/// Targeted malformed schedule scripts: rejected with a line-numbered
/// parse error or a validation error, never accepted and never a panic.
#[test]
fn malformed_schedule_scripts_error_out() {
    let parse_errors = [
        "drop",              // missing arguments
        "drop 1 0",          // not enough arguments
        "drop 1 0 1 9",      // too many arguments
        "warp 1 0 1",        // unknown directive
        "drop one 0 1",      // non-numeric round
        "loss 0 1 5 0.5",    // range without `..`
        "loss 0 1 1..x 0.5", // bad range end
        "delay 0 1 3..2 1",  // empty-by-inversion range caught later
        "seed",              // seed without a value
        "partition 1",       // partition with no side
    ];
    for script in parse_errors {
        let got = TopologySchedule::parse(script);
        match got {
            Ok(s) => {
                // Range inversions and the like surface at compile time.
                assert!(s.compile(&gen::cycle(6)).is_err(), "{script:?} was accepted");
            }
            Err(e) => assert!(!e.to_string().is_empty(), "{script:?}: empty error"),
        }
    }
    let compile_errors = [
        "drop 0 0 1",              // rounds are 1-based
        "drop 1 0 3",              // not a base edge of cycle-6
        "drop 1 0 99",             // node out of range
        "heal 1 0 1",              // heal without a drop
        "rejoin 2 3",              // rejoin without a crash
        "crash 1 2\ncrash 2 2",    // double crash
        "loss 0 1 1..2 1.5",       // probability out of range
        "delay 0 1 1..2 0",        // zero delay is a no-op
        "partition 1 0 1 2 3 4 5", // side is the whole graph
    ];
    for script in compile_errors {
        let schedule = TopologySchedule::parse(script).expect(script);
        assert!(schedule.compile(&gen::cycle(6)).is_err(), "{script:?} compiled");
    }
}

// ---------------------------------------------------------------------------
// Scenario files (nectar_experiments::scenario)
// ---------------------------------------------------------------------------

/// A busy but valid scenario document exercising most directives.
const SAMPLE_SCENARIO: &str = "\
# a busy but valid scenario
name fuzz fixture
topology harary-k4 12
t 2
seed 9
byz 1:silent
byz 3:two-faced@6-8
epochs 2
runtime parallel:2
schedule drop 1 0 1
schedule heal 3 0 1
report out/report.json
csv out/decisions.csv
profile
";

/// A valid mobility-driven scenario (waypoint supplies the topology).
const SAMPLE_WAYPOINT_SCENARIO: &str = "\
name waypoint fuzz
mobility waypoint nodes=16 radius=2000 speed=400 density=6000 rounds=6
t 1
seed 3
";

/// A mutation can inflate numeric fields arbitrarily; compiling a
/// million-node topology is slow, not wrong, so the fuzz loop only
/// compiles specs that stay CI-sized.
fn scenario_is_ci_sized(spec: &ScenarioSpec) -> bool {
    let declared = spec.family.as_ref().map_or(0, |(_, n)| *n).max(spec.nodes.unwrap_or(0));
    let (mobile, rounds) = match &spec.mobility {
        Some(MobilitySpec::Waypoint { nodes, rounds, .. }) => (*nodes, *rounds),
        Some(MobilitySpec::Churn { rounds, .. }) => (0, *rounds),
        Some(MobilitySpec::SplitHeal { heal_round, .. }) => (0, *heal_round),
        None => (0, 0),
    };
    declared.max(mobile) <= 2_000 && rounds <= 64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `ScenarioSpec::parse` (and, when parsing survives and the sizes
    /// stay sane, `compile`) on a damaged scenario file: error or
    /// success, never a panic.
    #[test]
    fn mutated_scenario_files_never_panic(
        waypoint in proptest::bool::ANY,
        muts in proptest::collection::vec((0usize..5, 0usize..10_000, 0u8..255), 1..4),
    ) {
        let mut doc =
            if waypoint { SAMPLE_WAYPOINT_SCENARIO } else { SAMPLE_SCENARIO }.to_string();
        for (kind, pos, payload) in muts {
            doc = mutate(&doc, kind, pos, payload);
        }
        match ScenarioSpec::parse(&doc, "fuzz.scn") {
            Ok(spec) => {
                if scenario_is_ci_sized(&spec) {
                    // A mutated-but-parseable scenario may be internally
                    // inconsistent; compile must reject it gracefully.
                    let _ = spec.compile();
                }
            }
            Err(e) => prop_assert!(!e.to_string().is_empty(), "empty scenario error"),
        }
    }
}

/// Truncation at every line boundary and a few mid-token cuts: a prefix
/// of a valid scenario is often still a valid scenario (the format is
/// line-based with defaults), so the contract is error-or-success with
/// no panic — and compile must catch whatever parse lets through.
#[test]
fn truncated_scenario_files_never_panic() {
    for doc in [SAMPLE_SCENARIO, SAMPLE_WAYPOINT_SCENARIO] {
        let cuts = (0..doc.len()).filter(|i| i % 7 == 0 || doc.as_bytes()[*i] == b'\n');
        for cut in cuts {
            let prefix = &doc[..cut];
            if let Ok(spec) = ScenarioSpec::parse(prefix, "truncated.scn") {
                let _ = spec.compile();
            }
        }
    }
}

/// Targeted malformed scenarios: every case must surface as an `Err`
/// from parse or compile — never a panic, never a silent `Ok`.
#[test]
fn malformed_scenario_files_error_out() {
    let cases = [
        // Empty and truncated-to-nothing documents have no topology.
        "",
        "name only a name\n",
        // Arity and vocabulary errors.
        "topology\n",
        "topology harary-k2\n",
        "topology harary-k2 8 9\n",
        "topology warp-drive 8\n",
        "flux-capacitor 1\n",
        "profile on\n",
        // Duplicate directives.
        "topology harary-k2 8\nt 1\nt 2\n",
        "topology harary-k2 8\nseed 1\nseed 2\n",
        // Bad values where numbers belong.
        "topology harary-k2 eight\n",
        "topology harary-k2 8\nt one\n",
        "topology harary-k2 8\nepochs 0\n",
        "topology harary-k2 8\nruntime warp\n",
        "topology harary-k2 8\nruntime threaded\n",
        "topology harary-k2 8\nruntime parallel:x\n",
        "topology harary-k2 8\ntransport carrier-pigeon\n",
        "topology harary-k2 8\nbase-port 99999\n",
        // Sizes outside a generator's domain.
        "topology cliques 10\n",
        "topology pasted-tree-k3 4\n",
        // Cross-reference errors: placements, edges and schedules that
        // do not fit the declared topology.
        "nodes 4\nedge 0 9\n",
        "nodes 4\nedge 1 1\n",
        "edge 0 1\n",
        "topology harary-k2 8\nt 8\n",
        "topology harary-k2 8\nbyz 9:silent\n",
        "topology harary-k2 8\nbyz 1:silent\nbyz 1:silent\n",
        "topology harary-k2 8\nbyz 1:warp@2\n",
        // Node ranges are bounded before they are materialized, and must
        // name nodes of the topology.
        "topology harary-k2 20\nbyz 0:hide@0-70000\n",
        "topology harary-k2 20\nbyz 0:two-faced@1-500\n",
        "topology harary-k2 8\nschedule drop 1 0 9\n",
        "topology harary-k2 8\nschedule drop 1 0 3\n",
        "topology harary-k2 8\nschedule @no-such-file.sched\n",
        // Mutually exclusive directives.
        "topology harary-k2 8\nnodes 8\n",
        "topology harary-k2 8\ncast honest\nbyz 1:silent\n",
        "topology harary-k2 8\nmobility split-heal at=1 heal=3\nschedule drop 1 0 1\n",
        "mobility waypoint nodes=8\ntopology harary-k2 8\n",
        // Transport × execution legality.
        "topology harary-k2 8\ntransport uds\nreport out.json\n",
        "topology harary-k2 8\ntransport loopback\nepochs 2\n",
        "topology harary-k2 8\ntransport tcp\nruntime event\n",
        "topology harary-k2 8\nsock-dir /tmp/x\n",
        // Mobility parameter errors.
        "mobility waypoint nodes=0\nt 1\n",
        "topology harary-k2 8\nmobility churn period=0\n",
        "topology harary-k2 8\nmobility churn warp=1\n",
    ];
    for (i, case) in cases.iter().enumerate() {
        let got = ScenarioSpec::parse(case, "bad.scn").and_then(|s| s.compile().map(|_| ()));
        match got {
            Ok(()) => panic!("case {i} ({case:?}) was accepted"),
            Err(e) => {
                assert!(!e.to_string().is_empty(), "case {i} ({case:?}): empty error");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec (the socket transport's wire format, nectar_crypto::frame)
// and the payload it carries (nectar_protocol::codec)
// ---------------------------------------------------------------------------

mod frame_fuzz {
    use nectar::crypto::{
        CodecError, Decode, Encode, Frame, FrameBuffer, KeyStore, NeighborhoodProof,
        SignatureChain, FRAME_HEADER_BYTES, FRAME_VERSION, MAX_FRAME_PAYLOAD,
    };
    use nectar::protocol::{NectarMsg, RelayedEdge};
    use proptest::prelude::*;

    /// What the receive path accepts: a decode that consumes every byte
    /// (`NodeDriver` rejects trailing bytes after a payload).
    fn accept<M: Decode>(bytes: &[u8]) -> Option<M> {
        let mut rest = bytes;
        M::decode(&mut rest).ok().filter(|_| rest.is_empty())
    }

    /// The decoders accept canonical bytes only: `wire` itself and every
    /// single-byte `^ mask` mutation of it either fails to decode or
    /// decodes to a value whose encoding is exactly the bytes decoded
    /// (after `canon`, for a field the decoder is documented to ignore).
    /// This is what lets a digest of the *re-encoded* message — the one
    /// `Recorded` logs — stand for the bytes that crossed the wire.
    fn assert_canonical<M: Encode + Decode>(
        wire: &[u8],
        mask: u8,
        canon: impl Fn(&M, &mut [u8]),
    ) -> Result<(), TestCaseError> {
        let original = accept::<M>(wire).map(|value| value.to_wire_bytes());
        prop_assert_eq!(original.as_deref(), Some(wire), "a valid encoding is accepted as itself");
        let mut mutated = wire.to_vec();
        for at in 0..wire.len() {
            mutated[at] ^= mask;
            if let Some(value) = accept::<M>(&mutated) {
                let mut expect = mutated.clone();
                canon(&value, &mut expect);
                prop_assert_eq!(value.to_wire_bytes(), expect, "byte {} ^ {:#04x}", at, mask);
            }
            mutated[at] = wire[at];
        }
        Ok(())
    }

    /// The one field the frame decoder drops: a `Hello` carries no
    /// protocol content and no round, so its round field is not looked at
    /// on the way in and is 0 on the way out.
    fn hello_round_is_ignored(decoded: &Frame, wire: &mut [u8]) {
        if matches!(decoded, Frame::Hello { .. }) {
            wire[4..8].fill(0);
        }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { from: 3 },
            Frame::RoundEnd { from: 9, round: 4 },
            Frame::Data { from: 1, round: 2, payload: vec![] },
            Frame::Data { from: 512, round: 7, payload: (0u8..=255).collect() },
        ]
    }

    /// Truncation at every byte boundary: the one-shot decoder errors,
    /// the streaming decoder waits for more bytes — neither panics, and
    /// neither fabricates a frame from a partial one.
    #[test]
    fn truncation_at_every_byte_boundary_is_safe() {
        for frame in sample_frames() {
            let bytes = frame.to_wire_bytes();
            for cut in 0..bytes.len() {
                let mut slice = &bytes[..cut];
                assert!(Frame::decode(&mut slice).is_err(), "{frame:?} cut at {cut}");
                let mut streaming = FrameBuffer::new();
                streaming.extend(&bytes[..cut]);
                assert_eq!(
                    streaming.next_frame(),
                    Ok(None),
                    "{frame:?} cut at {cut}: a partial frame must not decode"
                );
                // Feeding the rest completes the frame exactly.
                streaming.extend(&bytes[cut..]);
                assert_eq!(streaming.next_frame(), Ok(Some(frame.clone())), "cut at {cut}");
                assert_eq!(streaming.next_frame(), Ok(None));
            }
        }
    }

    /// Any version byte other than [`FRAME_VERSION`] is rejected before
    /// the rest of the header is even looked at.
    #[test]
    fn version_byte_mutation_is_rejected() {
        for frame in sample_frames() {
            let bytes = frame.to_wire_bytes();
            for version in (0u8..=255).filter(|&v| v != FRAME_VERSION) {
                let mut mutated = bytes.clone();
                mutated[0] = version;
                let mut slice = mutated.as_slice();
                assert!(Frame::decode(&mut slice).is_err(), "version {version} accepted");
                let mut streaming = FrameBuffer::new();
                streaming.extend(&mutated);
                assert!(streaming.next_frame().is_err(), "version {version} streamed through");
            }
        }
    }

    /// A length field beyond [`MAX_FRAME_PAYLOAD`] errors from the header
    /// alone: no payload needs to be present, so a hostile peer cannot
    /// make the decoder buffer or over-read.
    #[test]
    fn oversized_length_is_rejected_from_the_header() {
        let mut header = Frame::Data { from: 0, round: 1, payload: vec![] }.to_wire_bytes();
        assert_eq!(header.len(), FRAME_HEADER_BYTES);
        let oversized = (MAX_FRAME_PAYLOAD as u32 + 1).to_be_bytes();
        header[FRAME_HEADER_BYTES - 4..].copy_from_slice(&oversized);
        let mut slice = header.as_slice();
        assert!(matches!(Frame::decode(&mut slice), Err(CodecError::LengthOutOfBounds { .. })));
        let mut streaming = FrameBuffer::new();
        streaming.extend(&header);
        assert!(matches!(streaming.next_frame(), Err(CodecError::LengthOutOfBounds { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary bytes, fed in arbitrary chunkings: the streaming
        /// decoder returns frames or errors but never panics, and it
        /// never consumes bytes it was not given (no over-read).
        #[test]
        fn random_bytes_never_panic_the_stream_decoder(
            bytes in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
            chunk in 1usize..64,
        ) {
            let mut streaming = FrameBuffer::new();
            let mut fed = 0usize;
            for piece in bytes.chunks(chunk) {
                streaming.extend(piece);
                fed += piece.len();
                loop {
                    match streaming.next_frame() {
                        Ok(Some(frame)) => prop_assert!(frame.encoded_len() <= fed),
                        Ok(None) => break,
                        Err(_) => return Ok(()), // rejected cleanly — done
                    }
                }
                prop_assert!(streaming.pending() <= fed);
            }
        }

        /// Single-byte mutations of a valid multi-frame stream either
        /// still parse or error cleanly — never a panic, and every frame
        /// that does come out re-encodes to exactly the bytes it consumed.
        #[test]
        fn mutated_frame_streams_never_panic(
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..48),
            pos_seed in proptest::num::usize::ANY,
            byte in proptest::num::u8::ANY,
        ) {
            let mut stream = Vec::new();
            stream.extend(Frame::Hello { from: 2 }.to_wire_bytes());
            stream.extend(Frame::Data { from: 2, round: 1, payload }.to_wire_bytes());
            stream.extend(Frame::RoundEnd { from: 2, round: 1 }.to_wire_bytes());
            let pos = pos_seed % stream.len();
            stream[pos] = byte;
            let mut streaming = FrameBuffer::new();
            streaming.extend(&stream);
            let mut consumed = 0;
            for _ in 0..4 {
                match streaming.next_frame() {
                    Ok(Some(frame)) => {
                        let mut taken = stream[consumed..][..frame.encoded_len()].to_vec();
                        hello_round_is_ignored(&frame, &mut taken);
                        prop_assert_eq!(frame.to_wire_bytes(), taken);
                        consumed += frame.encoded_len();
                    }
                    Ok(None) | Err(_) => break,
                }
            }
            prop_assert_eq!(consumed, stream.len() - streaming.pending());
        }

        /// Canonical decode, frames: generated frames of all three kinds,
        /// every position, one-shot decoder. Apart from a `Hello`'s round,
        /// every bit of every frame is either rejected or preserved.
        #[test]
        fn accepted_frames_reencode_to_the_bytes_decoded(
            from in proptest::num::u16::ANY,
            round in proptest::num::u32::ANY,
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..40),
            mask in 1u8..=255,
        ) {
            for frame in [
                Frame::Hello { from },
                Frame::RoundEnd { from, round },
                Frame::Data { from, round, payload },
            ] {
                assert_canonical(&frame.to_wire_bytes(), mask, hello_round_is_ignored)?;
            }
        }

        /// Canonical decode, payloads: generated `NectarMsg`s (0–4 edges,
        /// chains of 0–3 links), every position. Nothing is normalized on
        /// the way in — version, reserved field, counts, ids, tags and
        /// padding are each either rejected or carried verbatim.
        #[test]
        fn accepted_payloads_reencode_to_the_bytes_decoded(
            edge_spec in proptest::collection::vec((0u16..6, 0u16..6, 0usize..4), 0..5),
            mask in 1u8..=255,
        ) {
            let ks = KeyStore::generate(8, 3);
            let edges = edge_spec
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, hops)| {
                    let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(b));
                    let digest = proof.digest();
                    let chain = (0..hops).fold(SignatureChain::new(), |chain, h| {
                        chain.extend(&ks.signer(h as u16), &digest)
                    });
                    RelayedEdge::new(proof, chain)
                })
                .collect();
            assert_canonical::<NectarMsg>(&NectarMsg::new(edges).to_wire_bytes(), mask, |_, _| {})?;
        }
    }
}
