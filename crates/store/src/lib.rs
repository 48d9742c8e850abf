//! Versioned, checksummed on-disk snapshots of programmed PIM models.
//!
//! Programming a model into the simulated crossbars is the expensive part
//! of bringing a replica up: quantization, calibration-plan search
//! (Algorithm 1), then bit-slicing every layer's weights onto differential
//! subarrays and building the per-layer conversion LUTs. A
//! [`ModelSnapshot`] captures the *result* of all of that — the quantized
//! network, the architecture, the per-layer ADC plan, and the exact
//! programmed state (bit planes, skip masks, packed LUTs) — so a fresh
//! process restores a bit-identical engine in milliseconds instead of
//! re-deriving it.
//!
//! # File format
//!
//! A snapshot file is a small binary envelope around a self-describing
//! JSON payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic, b"TRQSTORE"
//!      8     4  format version, u32 LE (currently 1)
//!     12     8  payload length in bytes, u64 LE
//!     20     8  FNV-1a-64 checksum of the payload, u64 LE
//!     28     n  payload: ModelSnapshot as JSON
//! ```
//!
//! Every failure mode maps to a typed [`StoreError`]: wrong magic,
//! unknown version, truncated payload, checksum mismatch, undecodable or
//! geometry-inconsistent payload. Decoding never panics on hostile bytes.
//!
//! # Generations
//!
//! [`save_generation`] writes numbered files (`gen-000001.trqs`, …) into a
//! directory, each via a temp-file + atomic rename so a crash mid-write
//! never leaves a half snapshot under a live generation name.
//! [`load_latest`] picks the highest generation present, which makes
//! "re-program, snapshot, restart replicas" a safe rolling upgrade.
//!
//! ```no_run
//! use trq_store::{load_latest, save_generation, ModelSnapshot};
//! # fn demo(qnet: &trq_nn::QuantizedNetwork, engine: &trq_core::pim::PimMvm)
//! # -> Result<(), trq_store::StoreError> {
//! let snap = ModelSnapshot::capture("lenet", qnet, engine)?;
//! save_generation("snapshots/lenet", &snap)?;
//! // ... later, in a fresh process:
//! let (generation, snap) = load_latest("snapshots/lenet")?;
//! let (qnet, engine) = snap.restore()?;
//! # let _ = (generation, qnet, engine); Ok(()) }
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use trq_core::arch::ArchConfig;
use trq_core::pim::{AdcScheme, PimMvm, ProgrammedLayerState};
use trq_nn::QuantizedNetwork;

/// Leading bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TRQSTORE";
/// The envelope format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed envelope header size: magic + version + length + checksum.
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

const GEN_PREFIX: &str = "gen-";
const GEN_SUFFIX: &str = ".trqs";

/// Errors from snapshot encoding, decoding, and file management.
///
/// Each variant names the failure precisely so callers can distinguish
/// "no snapshot yet" (first boot) from "snapshot damaged" (refuse to
/// serve) without string matching.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The envelope declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Highest version this build supports.
        supported: u32,
    },
    /// The file ends before the length declared in the header.
    Truncated {
        /// Bytes the header promised (header + payload).
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// The payload is well-framed but not a decodable [`ModelSnapshot`].
    Decode {
        /// What the decoder rejected.
        reason: String,
    },
    /// The snapshot could not be serialized (e.g. a non-finite float).
    Encode {
        /// What the encoder rejected.
        reason: String,
    },
    /// The snapshot decoded but is internally inconsistent — its
    /// programming does not match its own network and architecture.
    Invalid {
        /// Which consistency check failed.
        reason: String,
    },
    /// No generation file exists in the directory.
    NoSnapshot {
        /// Directory that was searched.
        dir: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::BadMagic => write!(f, "not a TRQ snapshot (bad magic)"),
            StoreError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot format v{found} is newer than supported v{supported}")
            }
            StoreError::Truncated { expected, got } => {
                write!(f, "snapshot truncated: {got} of {expected} bytes")
            }
            StoreError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header {expected:#018x}, payload {got:#018x}"
                )
            }
            StoreError::Decode { reason } => write!(f, "snapshot payload undecodable: {reason}"),
            StoreError::Encode { reason } => write!(f, "snapshot unencodable: {reason}"),
            StoreError::Invalid { reason } => write!(f, "snapshot inconsistent: {reason}"),
            StoreError::NoSnapshot { dir } => {
                write!(f, "no snapshot generations in {}", dir.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), source }
}

/// FNV-1a 64-bit hash — the envelope checksum. Deliberately simple and
/// dependency-free; this guards against torn writes and bit rot, not
/// adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything needed to reconstruct a serving-ready model byte-for-byte:
/// the quantized network, the architecture it was programmed for, the
/// per-layer ADC plan, and the programmed crossbar state itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSnapshot {
    /// Human-readable model name (carried into registry listings).
    pub name: String,
    /// Architecture the programming targets.
    pub arch: ArchConfig,
    /// Per-layer ADC scheme, indexed by `mvm_index`.
    pub plan: Vec<AdcScheme>,
    /// The quantized network (weights, scales, biases, geometry).
    pub qnet: QuantizedNetwork,
    /// Programmed crossbar state per layer, sorted by `mvm_index`.
    pub programming: Vec<ProgrammedLayerState>,
}

impl ModelSnapshot {
    /// Captures a snapshot of `engine` as programmed for `qnet`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] unless every MVM layer of `qnet`
    /// has been programmed (run [`PimMvm::program_layer`] for each layer,
    /// or at least one forward pass, first) — a partial snapshot would
    /// silently re-pay programming cost on restore, defeating the point.
    pub fn capture(
        name: &str,
        qnet: &QuantizedNetwork,
        engine: &PimMvm,
    ) -> Result<Self, StoreError> {
        let programming = engine.export_programming();
        let layers = qnet.layers().len();
        if programming.len() != layers {
            return Err(StoreError::Invalid {
                reason: format!(
                    "engine has {} of {layers} layers programmed; snapshot requires all",
                    programming.len()
                ),
            });
        }
        Ok(ModelSnapshot {
            name: name.to_string(),
            arch: *engine.arch(),
            plan: engine.plan().to_vec(),
            qnet: qnet.clone(),
            programming,
        })
    }

    /// Rebuilds the quantized network and a programmed engine from this
    /// snapshot. The returned engine produces bit-identical outputs and
    /// [`trq_core::pim::PimStats`] ledgers to the engine the snapshot was
    /// captured from.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Invalid`] when the snapshot's parts disagree
    /// with each other: plan or programming not covering every layer, a
    /// layer's subarray count or column width inconsistent with the
    /// snapshot's own network and architecture, or any of the
    /// [`PimMvm::import_programming`] geometry checks failing.
    pub fn restore(&self) -> Result<(QuantizedNetwork, PimMvm), StoreError> {
        let invalid = |reason: String| Err(StoreError::Invalid { reason });
        let layers = self.qnet.layers();
        if self.plan.len() != layers.len() {
            return invalid(format!(
                "plan covers {} layers, network has {}",
                self.plan.len(),
                layers.len()
            ));
        }
        if self.programming.len() != layers.len() {
            return invalid(format!(
                "programming covers {} layers, network has {}",
                self.programming.len(),
                layers.len()
            ));
        }
        let wbits = self.arch.weight_bits as usize;
        for (slot, state) in self.programming.iter().enumerate() {
            if state.mvm_index != slot {
                return invalid(format!(
                    "programming slot {slot} claims layer index {}",
                    state.mvm_index
                ));
            }
            let info = &layers[slot].info;
            let want_subs = self.arch.subarrays_for_depth(info.depth);
            if state.subarrays.len() != want_subs {
                return invalid(format!(
                    "layer {slot} has {} subarrays, depth {} needs {want_subs}",
                    state.subarrays.len(),
                    info.depth
                ));
            }
            let want_cols = info.outputs * wbits;
            for (s, sub) in state.subarrays.iter().enumerate() {
                if sub.pos.cols() != want_cols {
                    return invalid(format!(
                        "layer {slot} subarray {s} is {} columns wide, \
                         {} outputs x {wbits} weight bits needs {want_cols}",
                        sub.pos.cols(),
                        info.outputs
                    ));
                }
            }
        }
        let mut engine = PimMvm::new(self.arch, self.plan.clone());
        engine
            .import_programming(self.programming.clone())
            .map_err(|e| StoreError::Invalid { reason: e.to_string() })?;
        Ok((self.qnet.clone(), engine))
    }
}

/// Serializes a snapshot into the framed envelope (header + JSON payload).
///
/// # Errors
///
/// Returns [`StoreError::Encode`] when the payload cannot be rendered
/// (e.g. a non-finite float in the network).
pub fn encode_snapshot(snapshot: &ModelSnapshot) -> Result<Vec<u8>, StoreError> {
    let payload = serde_json::to_string(snapshot)
        .map_err(|e| StoreError::Encode { reason: e.to_string() })?;
    let payload = payload.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Parses bytes produced by [`encode_snapshot`], verifying magic,
/// version, declared length, and checksum before touching the payload.
///
/// # Errors
///
/// Returns the [`StoreError`] variant naming the first framing or
/// decoding failure; hostile or damaged bytes never panic.
pub fn decode_snapshot(bytes: &[u8]) -> Result<ModelSnapshot, StoreError> {
    if bytes.len() < HEADER_LEN {
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        return Err(StoreError::Truncated { expected: HEADER_LEN as u64, got: bytes.len() as u64 });
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // lint: allow(unwrap): literal-width slices — try_into cannot fail
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    // lint: allow(unwrap): literal-width slices — try_into cannot fail
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    // lint: allow(unwrap): literal-width slices — try_into cannot fail
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    // saturating: a hostile length near u64::MAX must not wrap past the
    // truncation check
    let expected = (HEADER_LEN as u64).saturating_add(payload_len);
    if (bytes.len() as u64) < expected {
        return Err(StoreError::Truncated { expected, got: bytes.len() as u64 });
    }
    let payload = &bytes[HEADER_LEN..expected as usize];
    let got = fnv1a64(payload);
    if got != checksum {
        return Err(StoreError::ChecksumMismatch { expected: checksum, got });
    }
    let text =
        std::str::from_utf8(payload).map_err(|e| StoreError::Decode { reason: e.to_string() })?;
    serde_json::from_str(text).map_err(|e| StoreError::Decode { reason: e.to_string() })
}

/// Writes a snapshot to `path` via a sibling temp file + atomic rename.
///
/// # Errors
///
/// Returns [`StoreError::Encode`] or [`StoreError::Io`].
pub fn save_snapshot(path: impl AsRef<Path>, snapshot: &ModelSnapshot) -> Result<(), StoreError> {
    let path = path.as_ref();
    let bytes = encode_snapshot(snapshot)?;
    let mut tmp = path.to_path_buf();
    let mut name = tmp.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    tmp.set_file_name(name);
    std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Reads and decodes a snapshot from `path`.
///
/// # Errors
///
/// Returns [`StoreError::Io`] when the file is unreadable, otherwise any
/// [`decode_snapshot`] error.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<ModelSnapshot, StoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_snapshot(&bytes)
}

fn parse_generation(file_name: &str) -> Option<u64> {
    file_name.strip_prefix(GEN_PREFIX)?.strip_suffix(GEN_SUFFIX)?.parse::<u64>().ok()
}

fn generation_file(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("{GEN_PREFIX}{generation:06}{GEN_SUFFIX}"))
}

/// Finds the highest snapshot generation in `dir`, if any.
///
/// Non-generation files are ignored; a missing directory reads as empty.
///
/// # Errors
///
/// Returns [`StoreError::Io`] only for errors other than the directory
/// not existing.
pub fn latest_generation(dir: impl AsRef<Path>) -> Result<Option<(u64, PathBuf)>, StoreError> {
    let dir = dir.as_ref();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(dir, e)),
    };
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(generation) = name.to_str().and_then(parse_generation) else { continue };
        if best.as_ref().is_none_or(|(g, _)| generation > *g) {
            best = Some((generation, entry.path()));
        }
    }
    Ok(best)
}

/// Writes `snapshot` as the next generation in `dir` (creating the
/// directory if needed) and returns the generation number it received.
///
/// The write goes through a temp file + rename, so readers concurrently
/// calling [`load_latest`] see either the previous generation or the
/// complete new one — never a torn file.
///
/// # Errors
///
/// Returns [`StoreError::Encode`] or [`StoreError::Io`].
pub fn save_generation(dir: impl AsRef<Path>, snapshot: &ModelSnapshot) -> Result<u64, StoreError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let next = latest_generation(dir)?.map_or(1, |(g, _)| g + 1);
    save_snapshot(generation_file(dir, next), snapshot)?;
    Ok(next)
}

/// Loads the highest-numbered snapshot generation from `dir`.
///
/// # Errors
///
/// Returns [`StoreError::NoSnapshot`] when the directory holds no
/// generation files, otherwise any [`load_snapshot`] error.
pub fn load_latest(dir: impl AsRef<Path>) -> Result<(u64, ModelSnapshot), StoreError> {
    let dir = dir.as_ref();
    let Some((generation, path)) = latest_generation(dir)? else {
        return Err(StoreError::NoSnapshot { dir: dir.to_path_buf() });
    };
    Ok((generation, load_snapshot(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn generation_names_round_trip_and_sort() {
        assert_eq!(parse_generation("gen-000001.trqs"), Some(1));
        assert_eq!(parse_generation("gen-1000000.trqs"), Some(1_000_000));
        assert_eq!(parse_generation("gen-.trqs"), None);
        assert_eq!(parse_generation("gen-12.json"), None);
        assert_eq!(parse_generation("snapshot.trqs"), None);
        let dir = Path::new("/tmp/x");
        assert_eq!(generation_file(dir, 7), dir.join("gen-000007.trqs"));
    }

    #[test]
    fn short_input_is_truncated_unless_magic_is_wrong() {
        assert!(matches!(decode_snapshot(b"TRQSTOR"), Err(StoreError::Truncated { .. })));
        assert!(matches!(decode_snapshot(b"NOTASNAP"), Err(StoreError::BadMagic)));
        assert!(matches!(decode_snapshot(b""), Err(StoreError::Truncated { .. })));
    }
}
