//! # biot-crypto
//!
//! From-scratch cryptographic primitives for the B-IoT reproduction
//! (ICDCS 2019): everything the paper's prototype used — SHA-256 for PoW
//! and identities, AES for the data authority management method, and a
//! public-key scheme (RSA over a from-scratch bignum) for signatures and
//! symmetric-key distribution.
//!
//! These implementations favour clarity and testability over speed or
//! side-channel resistance; they back a research simulator, not a
//! production HSM.
//!
//! ## Modules
//!
//! * [`sha256`] — FIPS 180-4 SHA-256/224 and HMAC-SHA-256.
//! * [`aes`] — FIPS 197 AES-128/192/256 with ECB/CBC/CTR and PKCS#7.
//! * [`bignum`] — arbitrary-precision unsigned arithmetic with modular
//!   exponentiation and Miller–Rabin primality.
//! * [`rsa`] — keygen, PKCS#1 v1.5-style signatures and encryption.
//! * [`rng`] — nonce / IV / session-key helpers.
//!
//! ## Example: the paper's encrypt-then-post flow
//!
//! ```
//! use biot_crypto::{aes::Aes, rng, sha256::sha256};
//!
//! let mut r = rand::thread_rng();
//! let session_key = rng::random_aes256_key(&mut r);
//! let iv = rng::random_iv(&mut r);
//! let cipher = Aes::new(&session_key);
//!
//! let reading = b"temperature=21.5C";
//! let ciphertext = cipher.encrypt_cbc(reading, &iv);
//! let tx_payload_hash = sha256(&ciphertext); // what lands on the ledger
//! assert_eq!(tx_payload_hash.len(), 32);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod bignum;
pub mod kdf;
pub mod rng;
pub mod rsa;
pub mod sha256;
