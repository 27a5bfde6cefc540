//! Cryptographic substrate for the NECTAR reproduction.
//!
//! **Place in the runtime stack:** a leaf dependency of the protocol layer.
//! `nectar-protocol` signs and verifies through this crate inside every
//! `send`/`receive` the runtimes (`nectar-net`) drive; nothing here knows
//! about graphs, rounds or runtimes.
//!
//! The paper assumes an asymmetric digital signature scheme with chained
//! signatures and unforgeable proofs of neighborhood (§II). This crate
//! provides all of it from scratch, on top of a NIST-vector-tested SHA-256:
//!
//! * [`sha256`]: FIPS 180-4 SHA-256,
//! * [`hmac`]: RFC 2104 HMAC-SHA-256 behind a prepared key ([`hmac::HmacKey`]),
//! * [`keys`]: the simulated signature scheme ([`KeyStore`], [`Signer`],
//!   [`Verifier`]) — see `docs/ARCHITECTURE.md` §2, "The crypto layer", for
//!   why the simulation preserves the two properties the protocol needs
//!   (unforgeability and ECDSA wire size) and for the cost of each operation
//!   in SHA-256 compressions,
//! * [`chain`]: chained signatures σ_j(σ_i(msg)) ([`SignatureChain`]),
//! * [`proof`]: both-endpoint-signed [`NeighborhoodProof`]s,
//! * [`wire`]: byte-accounting constants for the evaluation's network-cost
//!   figures,
//! * [`frame`]: length-prefixed, versioned socket frames — the stream
//!   framing the real transport (`nectar-net`) wraps around the codec.
//!
//! # Example
//!
//! ```
//! use nectar_crypto::{KeyStore, NeighborhoodProof, SignatureChain};
//!
//! let keys = KeyStore::generate(4, 42);
//! let proof = NeighborhoodProof::new(&keys.signer(0), &keys.signer(1));
//! assert!(proof.verify(&keys.verifier()));
//!
//! // Node 0 announces the edge (round 1), node 2 relays it (round 2).
//! let digest = proof.digest();
//! let chain = SignatureChain::new()
//!     .extend(&keys.signer(0), &digest)
//!     .extend(&keys.signer(2), &digest);
//! assert_eq!(chain.len(), 2);
//! assert!(chain.verify(&keys.verifier(), &digest));
//! ```
//!
//! # Denied, not forbidden, unsafe code
//!
//! Every other crate of the workspace forbids unsafe code outright. This one
//! denies it, so that [`sha256`] can allow it at exactly two calls: entering
//! the SHA-extension compression kernels — one block, or two interleaved —
//! once runtime feature detection has confirmed the CPU has them
//! (`docs/ARCHITECTURE.md` §2, "The crypto layer"). The kernels' bodies are
//! safe code; any other unsafe block in this crate is still a compile error.

#![deny(unsafe_code)]

pub mod chain;
pub mod codec;
pub mod frame;
pub mod hmac;
pub mod keys;
pub mod proof;
pub mod sha256;
pub mod wire;

pub use chain::SignatureChain;
pub use codec::{CodecError, Decode, Encode};
pub use frame::{Frame, FrameBuffer, FRAME_HEADER_BYTES, FRAME_VERSION, MAX_FRAME_PAYLOAD};
pub use keys::{KeyStore, Signature, Signer, SignerId, Verifier};
pub use proof::NeighborhoodProof;
