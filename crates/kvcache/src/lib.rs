//! Paged KV-cache management with automatic prefix caching.
//!
//! A faithful, event-level model of vLLM's block manager:
//!
//! * GPU memory reserved for KV cache is divided into fixed-size **blocks**
//!   ([`block::BlockId`], default 16 tokens),
//! * each sequence owns a **block table**; full blocks are content-hashed
//!   by their token chain ([`hash`]), memoized per [`TokenBuf`] so a
//!   growing context is hashed once,
//! * a **prefix cache** maps chain hashes to resident blocks, so a new
//!   sequence whose prompt shares a prefix with earlier traffic reuses
//!   those blocks instead of recomputing them,
//! * blocks whose reference count drops to zero stay cached and become
//!   **evictable** (LRU, kept in a lazily invalidated min-heap),
//!   reproducing vLLM's automatic prefix caching and
//!   — under memory pressure — its cache-thrashing behaviour (the paper's
//!   Fig. 17).
//!
//! # Example
//!
//! ```
//! use agentsim_kvcache::{KvBlockManager, KvConfig, TokenBuf};
//! use agentsim_simkit::SimTime;
//!
//! let mut mgr = KvBlockManager::new(KvConfig { num_blocks: 64, block_size: 16, prefix_caching: true });
//! let prompt = TokenBuf::from_segment(1, 64);
//! let seq = mgr.allocate(&prompt, SimTime::ZERO).expect("fits");
//! assert_eq!(mgr.cached_tokens(&seq), 0, "cold cache");
//! mgr.free(seq, SimTime::ZERO);
//!
//! // Same prompt again: the prefix cache covers everything except the
//! // final token, which is recomputed so the model has logits to sample.
//! let seq2 = mgr.allocate(&prompt, SimTime::from_micros(1)).expect("fits");
//! assert_eq!(mgr.cached_tokens(&seq2), 63);
//! ```

pub mod block;
pub mod hash;
mod heap;
pub mod hierarchy;
pub mod manager;
pub mod stats;
pub mod tokens;

pub use block::BlockId;
pub use hierarchy::{EvictionPolicy, MemoryHierarchy, OffloadSpec, Tier, TierDir, TierTransfer};
pub use manager::{AllocError, KvBlockManager, KvConfig, SeqHandle, DEFAULT_BLOCK_SIZE};
pub use stats::KvStats;
pub use tokens::{Token, TokenBuf};
