//! Criterion micro-benchmarks for the cryptographic substrate: SHA-256
//! throughput, signing/verification, proof and chain operations. These are
//! the per-message costs behind NECTAR's network figures. Plus the wire
//! path's two per-message costs: decoding a message and one frame's trip
//! through the streaming decoder. And the cost flooding suppression leaves
//! after the crypto is skipped: a node dropping a message of edges it
//! already knows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use nectar_crypto::{
    hmac::HmacKey, sha256::sha256, Decode, Encode, Frame, FrameBuffer, KeyStore, NeighborhoodProof,
    SignatureBatch, SignatureChain,
};
use nectar_graph::gen;
use nectar_net::{NodeId, Process};
use nectar_protocol::{NectarConfig, NectarMsg, NectarNode, RelayedEdge};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)));
        });
    }
    group.finish();
}

fn bench_sign_verify(c: &mut Criterion) {
    let ks = KeyStore::generate(16, 1);
    let signer = ks.signer(0);
    let verifier = ks.verifier();
    // One chain link's signature: a tag over the 32-byte tag before it.
    let key = HmacKey::new(b"bench key");
    let digest = [0x5au8; 32];
    c.bench_function("hmac_tag_32B", |b| b.iter(|| key.tag(black_box(&digest))));
    // Two such tags checked together: a two-link chain's `verify`, one
    // batch of two 32-byte messages (one pair on the SHA extensions) plus
    // two key lookups and tag compares.
    let two_links = (0..2u16).fold(SignatureChain::new(), |c, h| c.extend(&ks.signer(h), &digest));
    c.bench_function("hmac_tag_pair_32B", |b| {
        b.iter(|| two_links.verify(black_box(&verifier), black_box(&digest)))
    });
    // Sixteen such tags as one batch: one 16-lane run each way on a CPU
    // with AVX-512, eight pairs each way without.
    let mut batch = SignatureBatch::new();
    let signers: Vec<_> = (0..16).map(|i| ks.signer(i)).collect();
    c.bench_function("hmac_tags/16", |b| {
        b.iter(|| {
            batch.clear();
            for s in &signers {
                batch.sign(s, black_box(&digest));
            }
            batch.run();
            batch.signature(15)
        })
    });
    let msg = vec![0x5au8; 128];
    c.bench_function("sign_128B", |b| b.iter(|| signer.sign(black_box(&msg))));
    let sig = signer.sign(&msg);
    c.bench_function("verify_128B", |b| {
        b.iter(|| verifier.verify(black_box(&msg), black_box(&sig)))
    });
}

fn bench_proof_and_chain(c: &mut Criterion) {
    let ks = KeyStore::generate(16, 1);
    let verifier = ks.verifier();
    c.bench_function("neighborhood_proof_new", |b| {
        b.iter(|| NeighborhoodProof::new(&ks.signer(0), &ks.signer(1)))
    });
    let proof = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
    c.bench_function("neighborhood_proof_verify", |b| {
        b.iter(|| proof.verify(black_box(&verifier)))
    });

    let digest = proof.digest();
    let chain_of = |hops: usize| {
        (0..hops).fold(SignatureChain::new(), |c, h| c.extend(&ks.signer(h as u16), &digest))
    };
    let mut group = c.benchmark_group("chain_verify");
    for hops in [1usize, 4, 16] {
        let chain = chain_of(hops);
        group.bench_with_input(BenchmarkId::from_parameter(hops), &chain, |b, chain| {
            b.iter(|| chain.verify(black_box(&verifier), black_box(&digest)));
        });
    }
    group.finish();

    // What a relay pays to add its link: flat in the chain length, since it
    // signs the last link's tag.
    let mut group = c.benchmark_group("chain_extend");
    for hops in [1usize, 4, 16] {
        let chain = chain_of(hops);
        let relay = ks.signer(hops as u16 % 16);
        group.bench_with_input(BenchmarkId::from_parameter(hops), &chain, |b, chain| {
            b.iter(|| chain.extend(black_box(&relay), black_box(&digest)));
        });
    }
    group.finish();
}

fn bench_wire_path(c: &mut Criterion) {
    // A mid-run relay batch: 16 edges, each six hops from its origin.
    let ks = KeyStore::generate(17, 1);
    let edges = (0..16u16)
        .map(|a| {
            let proof = NeighborhoodProof::new(&ks.signer(a), &ks.signer(a + 1));
            let digest = proof.digest();
            let chain = (0..6).fold(SignatureChain::new(), |c, h| c.extend(&ks.signer(h), &digest));
            RelayedEdge::new(proof, chain)
        })
        .collect();
    let wire = NectarMsg::new(edges).to_wire_bytes();
    c.bench_function("nectar_msg_decode/16", |b| {
        b.iter(|| NectarMsg::decode(&mut black_box(wire.as_slice())))
    });

    let frame = Frame::Data { from: 3, round: 2, payload: vec![0xabu8; 4096] };
    let mut decoder = FrameBuffer::new();
    c.bench_function("frame_roundtrip/4096", |b| {
        b.iter(|| {
            decoder.extend(&black_box(&frame).to_wire_bytes());
            decoder.next_frame()
        })
    });
}

fn bench_receive_known(c: &mut Criterion) {
    // Node 0 of Fig. 3's largest point (Harary k = 10, n = 100) once its view
    // is complete: its 10 edges from set-up plus the other 490 announced.
    // A neighbor then delivers 64 of those edges again — the 89 % of a
    // run's deliveries that flooding suppression drops before any signature
    // check (Alg. 1 l. 14). Each iteration clones the message (one refcount
    // bump, whatever it holds), as every delivered copy is.
    let (k, n) = (10, 100);
    let g = gen::harary(k, n).expect("valid parameters");
    let ks = KeyStore::generate(n, 1);
    let proof =
        |u: usize, v: usize| NeighborhoodProof::new(&ks.signer(u as u16), &ks.signer(v as u16));
    let own = g.neighbors(0).map(|j| (j as NodeId, proof(0, j))).collect();
    let mut node =
        NectarNode::new(0, NectarConfig::new(n, k / 2), ks.signer(0), ks.verifier(), own);
    let edges: Vec<(usize, usize)> = g.edges().collect();
    for &(u, v) in edges.iter().filter(|&&(u, _)| u != 0) {
        node.announce_extra_proof(proof(u, v));
    }
    assert_eq!(node.known_edge_count(), edges.len());
    let from = node.neighbors()[0];
    let msg: NectarMsg = edges
        .iter()
        .step_by(edges.len() / 64)
        .take(64)
        .map(|&(u, v)| {
            let proof = proof(u, v);
            let digest = proof.digest();
            let chain = [u, from]
                .iter()
                .fold(SignatureChain::new(), |c, &h| c.extend(&ks.signer(h as u16), &digest));
            RelayedEdge::new(proof, chain)
        })
        .collect();
    let mut group = c.benchmark_group("receive_known");
    group.bench_with_input(BenchmarkId::from_parameter(msg.edges.len()), &msg, |b, msg| {
        b.iter(|| node.receive(2, from, black_box(msg).clone()));
    });
    group.finish();
    assert!(node.rejections().is_empty() && node.known_edge_count() == edges.len());
}

criterion_group!(
    benches,
    bench_sha256,
    bench_sign_verify,
    bench_proof_and_chain,
    bench_wire_path,
    bench_receive_known
);
criterion_main!(benches);
