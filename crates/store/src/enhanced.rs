//! The enhanced data store client.
//!
//! Reference \[11\] of the paper ("Providing Enhanced Functionality for Data
//! Store Clients", ICDE 2017) describes clients that add caching,
//! encryption and compression in front of cloud data stores; the
//! personalized knowledge base "uses enhanced data store clients which
//! reduce the latency for accessing remote data stores via caching" (§3).
//!
//! [`EnhancedClient`] wraps any [`KeyValueStore`] (typically the remote
//! one) and layers, in order: client-side cache → compression →
//! encryption. It keeps byte counters so experiments can report
//! bytes-on-the-wire savings. The cache is the SDK's
//! [`ResponseCache`] over plaintext bytes — sharded, LRU, single-flight —
//! with entries that never expire.

use crate::compress;
use crate::crypto::{self, Key};
use crate::kv::KeyValueStore;
use crate::StoreError;
use bytes::Bytes;
use cogsdk_core::cache::{CacheConfig, FetchSource, FlightAbandoned, ResponseCache};
use cogsdk_obs::Telemetry;
use cogsdk_sim::clock::SimClock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for an [`EnhancedClient`].
#[derive(Debug, Clone)]
pub struct EnhancedOptions {
    /// Cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Compress values before upload.
    pub compress: bool,
    /// Encrypt values before upload (after compression).
    pub encryption_key: Option<Key>,
}

impl Default for EnhancedOptions {
    fn default() -> EnhancedOptions {
        EnhancedOptions {
            cache_capacity: 1024,
            compress: false,
            encryption_key: None,
        }
    }
}

/// Operation counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnhancedStats {
    /// Cache hits on `get`.
    pub cache_hits: u64,
    /// Cache misses on `get` (remote fetches).
    pub cache_misses: u64,
    /// `get` calls that joined another caller's in-flight remote fetch
    /// for the same key instead of fetching themselves (not counted as
    /// hits or misses).
    pub coalesced_waits: u64,
    /// Total plaintext bytes passed to `put`.
    pub bytes_in: u64,
    /// Total bytes actually sent to the remote store.
    pub bytes_on_wire: u64,
}

/// A caching, compressing, encrypting client over a remote store.
///
/// # Examples
///
/// ```
/// use cogsdk_store::{EnhancedClient, MemoryKv, KeyValueStore};
/// use cogsdk_store::enhanced::EnhancedOptions;
/// use bytes::Bytes;
/// use std::sync::Arc;
///
/// let remote = Arc::new(MemoryKv::new());
/// let client = EnhancedClient::new(remote, EnhancedOptions::default());
/// client.put("k", Bytes::from("v")).unwrap();
/// assert_eq!(client.get("k").unwrap(), Bytes::from("v"));
/// assert_eq!(client.stats().cache_hits, 1); // served locally
/// ```
pub struct EnhancedClient {
    remote: Arc<dyn KeyValueStore>,
    options: EnhancedOptions,
    cache: ResponseCache<Bytes, StoreError>,
    nonce: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced_waits: AtomicU64,
    bytes_in: AtomicU64,
    bytes_on_wire: AtomicU64,
}

impl std::fmt::Debug for EnhancedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnhancedClient")
            .field("options", &self.options)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// A flight whose leader panicked leaves the remote's state unknown.
impl From<FlightAbandoned> for StoreError {
    fn from(abandoned: FlightAbandoned) -> StoreError {
        StoreError::RemoteUnavailable(abandoned.to_string())
    }
}

impl EnhancedClient {
    /// Wraps `remote` with the given options.
    pub fn new(remote: Arc<dyn KeyValueStore>, options: EnhancedOptions) -> EnhancedClient {
        // A clock nobody advances and the longest TTL: entries leave the
        // cache by eviction, `delete` or `invalidate_cache` only.
        let config = CacheConfig {
            capacity: options.cache_capacity,
            default_ttl: Duration::MAX,
            // One shard per 32 entries, up to 8; small caches keep a
            // single shard and so exact whole-cache LRU order.
            shards: (options.cache_capacity / 32).clamp(1, 8),
            stale_while_revalidate: None,
        };
        EnhancedClient {
            cache: ResponseCache::build(SimClock::new(), config, Telemetry::disabled()),
            remote,
            options,
            nonce: AtomicU64::new(1),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_on_wire: AtomicU64::new(0),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> EnhancedStats {
        EnhancedStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced_waits: self.coalesced_waits.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_on_wire: self.bytes_on_wire.load(Ordering::Relaxed),
        }
    }

    /// Number of lock-striped cache shards (scales with capacity).
    pub fn cache_shards(&self) -> usize {
        self.cache.shard_count()
    }

    /// Drops every cached entry (used by consistency experiments).
    pub fn invalidate_cache(&self) {
        self.cache.clear();
    }

    fn encode(&self, value: &Bytes) -> Bytes {
        let mut data = value.clone();
        if self.options.compress {
            data = compress::compress(&data);
        }
        if let Some(key) = &self.options.encryption_key {
            let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
            data = crypto::encrypt(key, nonce, &data);
        }
        data
    }

    fn decode(&self, data: Bytes) -> Result<Bytes, StoreError> {
        let mut data = data;
        if let Some(key) = &self.options.encryption_key {
            data = crypto::decrypt(key, &data)?;
        }
        if self.options.compress {
            data = compress::decompress(&data)?;
        }
        Ok(data)
    }
}

impl KeyValueStore for EnhancedClient {
    fn put(&self, key: &str, value: Bytes) -> Result<(), StoreError> {
        self.bytes_in
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        let encoded = self.encode(&value);
        self.bytes_on_wire
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        self.remote.put(key, encoded)?;
        // Write-through cache of the plaintext.
        self.cache.put(key, value);
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes, StoreError> {
        let (value, source) = self.cache.get_or_fetch(key, || {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            self.remote.get(key).and_then(|raw| self.decode(raw))
        })?;
        match source {
            FetchSource::Hit => self.cache_hits.fetch_add(1, Ordering::Relaxed),
            FetchSource::Coalesced => self.coalesced_waits.fetch_add(1, Ordering::Relaxed),
            // A miss is counted where the remote is read.
            FetchSource::Fetched | FetchSource::Stale => 0,
        };
        Ok(value)
    }

    fn delete(&self, key: &str) -> Result<bool, StoreError> {
        self.cache.invalidate(key);
        self.remote.delete(key)
    }

    fn keys(&self) -> Result<Vec<String>, StoreError> {
        self.remote.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::MemoryKv;

    fn remote() -> Arc<MemoryKv> {
        Arc::new(MemoryKv::new())
    }

    #[test]
    fn plain_client_round_trips() {
        let client = EnhancedClient::new(remote(), EnhancedOptions::default());
        client.put("k", Bytes::from("hello")).unwrap();
        assert_eq!(client.get("k").unwrap(), Bytes::from("hello"));
        assert!(client.delete("k").unwrap());
        assert!(client.get("k").is_err());
    }

    #[test]
    fn cache_serves_repeat_reads() {
        let r = remote();
        let client = EnhancedClient::new(r.clone(), EnhancedOptions::default());
        client.put("k", Bytes::from("v")).unwrap();
        for _ in 0..5 {
            client.get("k").unwrap();
        }
        let s = client.stats();
        assert_eq!(s.cache_hits, 5);
        assert_eq!(s.cache_misses, 0);
        // After invalidation the next read goes remote.
        client.invalidate_cache();
        client.get("k").unwrap();
        assert_eq!(client.stats().cache_misses, 1);
    }

    #[test]
    fn compression_reduces_wire_bytes() {
        let client = EnhancedClient::new(
            remote(),
            EnhancedOptions {
                compress: true,
                ..EnhancedOptions::default()
            },
        );
        let value = Bytes::from("repetitive payload ".repeat(200));
        client.put("k", value.clone()).unwrap();
        let s = client.stats();
        assert!(s.bytes_on_wire < s.bytes_in / 3, "{s:?}");
        client.invalidate_cache();
        assert_eq!(client.get("k").unwrap(), value);
    }

    #[test]
    fn encryption_hides_plaintext_on_remote() {
        let r = remote();
        let key = Key::derive("kb secret");
        let client = EnhancedClient::new(
            r.clone(),
            EnhancedOptions {
                encryption_key: Some(key),
                ..EnhancedOptions::default()
            },
        );
        client.put("k", Bytes::from("very confidential")).unwrap();
        let on_remote = r.get("k").unwrap();
        assert!(!on_remote
            .windows(b"confidential".len())
            .any(|w| w == b"confidential"));
        client.invalidate_cache();
        assert_eq!(client.get("k").unwrap(), Bytes::from("very confidential"));
    }

    #[test]
    fn compress_then_encrypt_round_trips() {
        let key = Key::derive("both layers");
        let client = EnhancedClient::new(
            remote(),
            EnhancedOptions {
                compress: true,
                encryption_key: Some(key),
                cache_capacity: 0, // force remote round trips
            },
        );
        let value = Bytes::from("abcabcabc".repeat(100));
        client.put("k", value.clone()).unwrap();
        assert_eq!(client.get("k").unwrap(), value);
        let s = client.stats();
        assert_eq!(s.cache_hits, 0);
        assert!(s.bytes_on_wire < s.bytes_in, "{s:?}");
    }

    #[test]
    fn wrong_key_on_shared_remote_fails_closed() {
        let r = remote();
        let writer = EnhancedClient::new(
            r.clone(),
            EnhancedOptions {
                encryption_key: Some(Key::derive("alice")),
                ..EnhancedOptions::default()
            },
        );
        writer.put("k", Bytes::from("for alice only")).unwrap();
        let reader = EnhancedClient::new(
            r,
            EnhancedOptions {
                encryption_key: Some(Key::derive("mallory")),
                ..EnhancedOptions::default()
            },
        );
        assert_eq!(reader.get("k"), Err(StoreError::IntegrityFailure));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let r = remote();
        let client = EnhancedClient::new(
            r,
            EnhancedOptions {
                cache_capacity: 2,
                ..EnhancedOptions::default()
            },
        );
        client.put("a", Bytes::from("1")).unwrap();
        client.put("b", Bytes::from("2")).unwrap();
        client.get("a").unwrap(); // a is now most recent
        client.put("c", Bytes::from("3")).unwrap(); // evicts b
        let before = client.stats();
        client.get("a").unwrap();
        client.get("c").unwrap();
        assert_eq!(client.stats().cache_hits, before.cache_hits + 2);
        client.get("b").unwrap(); // must go remote
        assert_eq!(client.stats().cache_misses, before.cache_misses + 1);
    }

    /// A remote that counts gets and holds each one open long enough for
    /// concurrent callers to pile onto the flight.
    struct SlowKv {
        inner: Arc<MemoryKv>,
        gets: AtomicU64,
        hold: std::time::Duration,
    }

    impl KeyValueStore for SlowKv {
        fn put(&self, key: &str, value: Bytes) -> Result<(), StoreError> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> Result<Bytes, StoreError> {
            self.gets.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.hold);
            self.inner.get(key)
        }
        fn delete(&self, key: &str) -> Result<bool, StoreError> {
            self.inner.delete(key)
        }
        fn keys(&self) -> Result<Vec<String>, StoreError> {
            self.inner.keys()
        }
    }

    #[test]
    fn concurrent_misses_coalesce_to_one_remote_fetch() {
        let slow = Arc::new(SlowKv {
            inner: remote(),
            gets: AtomicU64::new(0),
            hold: std::time::Duration::from_millis(40),
        });
        slow.inner.put("k", Bytes::from("v")).unwrap();
        let client = Arc::new(EnhancedClient::new(
            slow.clone(),
            EnhancedOptions::default(),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let client = client.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    assert_eq!(client.get("k").unwrap(), Bytes::from("v"));
                });
            }
        });
        assert_eq!(
            slow.gets.load(Ordering::SeqCst),
            1,
            "one remote fetch for 8 concurrent readers"
        );
        let s = client.stats();
        assert_eq!(s.cache_misses, 1);
        assert_eq!(
            s.cache_hits + s.coalesced_waits,
            7,
            "everyone else was served without a remote call: {s:?}"
        );
        // The flight slot is cleaned up and the value cached.
        client.get("k").unwrap();
        assert_eq!(slow.gets.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn coalesced_error_fans_out_and_is_not_cached() {
        let slow = Arc::new(SlowKv {
            inner: remote(),
            gets: AtomicU64::new(0),
            hold: std::time::Duration::from_millis(20),
        });
        let client = Arc::new(EnhancedClient::new(
            slow.clone(),
            EnhancedOptions::default(),
        ));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let client = client.clone();
                let barrier = barrier.clone();
                scope.spawn(move || {
                    barrier.wait();
                    // Key absent: every waiter receives the leader's error.
                    assert!(matches!(
                        client.get("missing"),
                        Err(StoreError::NotFound(_))
                    ));
                });
            }
        });
        assert_eq!(slow.gets.load(Ordering::SeqCst), 1, "one remote miss");
        // Errors are not cached: the next get retries the remote.
        assert!(client.get("missing").is_err());
        assert_eq!(slow.gets.load(Ordering::SeqCst), 2);
    }

    /// A remote whose first `get` panics; later gets read through.
    struct PanicOnceKv {
        inner: Arc<MemoryKv>,
        panicked: std::sync::atomic::AtomicBool,
    }

    impl KeyValueStore for PanicOnceKv {
        fn put(&self, key: &str, value: Bytes) -> Result<(), StoreError> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> Result<Bytes, StoreError> {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("remote crashed mid-read");
            }
            self.inner.get(key)
        }
        fn delete(&self, key: &str) -> Result<bool, StoreError> {
            self.inner.delete(key)
        }
        fn keys(&self) -> Result<Vec<String>, StoreError> {
            self.inner.keys()
        }
    }

    #[test]
    fn a_panicking_remote_get_does_not_wedge_its_key() {
        let crashy = Arc::new(PanicOnceKv {
            inner: remote(),
            panicked: Default::default(),
        });
        crashy.inner.put("k", Bytes::from("v")).unwrap();
        let client = Arc::new(EnhancedClient::new(crashy, EnhancedOptions::default()));
        let leader = client.clone();
        let led = std::thread::spawn(move || leader.get("k")).join();
        assert!(led.is_err(), "the first remote get panics");
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || tx.send(client.get("k")));
        let next = rx
            .recv_timeout(std::time::Duration::from_secs(2))
            .expect("a later get of the key returns");
        reader.join().unwrap().unwrap();
        assert_eq!(next, Ok(Bytes::from("v")));
    }

    #[test]
    fn large_caches_stripe_small_caches_do_not() {
        let small = EnhancedClient::new(remote(), EnhancedOptions::default());
        assert!(small.cache_shards() >= 1);
        let tiny = EnhancedClient::new(
            remote(),
            EnhancedOptions {
                cache_capacity: 2,
                ..EnhancedOptions::default()
            },
        );
        assert_eq!(tiny.cache_shards(), 1, "tiny caches keep global LRU order");
        let big = EnhancedClient::new(
            remote(),
            EnhancedOptions {
                cache_capacity: 1024,
                ..EnhancedOptions::default()
            },
        );
        assert_eq!(big.cache_shards(), 8);
        // Striped capacity still bounds total residency.
        for i in 0..4096 {
            big.put(&format!("k{i}"), Bytes::from("x")).unwrap();
        }
        let resident: usize = (0..4096)
            .filter(|i| {
                let before = big.stats().cache_hits;
                let _ = big.get(&format!("k{i}"));
                big.stats().cache_hits > before
            })
            .count();
        assert!(resident <= 1024, "{resident} > capacity");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let client = EnhancedClient::new(
            remote(),
            EnhancedOptions {
                cache_capacity: 0,
                ..EnhancedOptions::default()
            },
        );
        client.put("k", Bytes::from("v")).unwrap();
        client.get("k").unwrap();
        client.get("k").unwrap();
        let s = client.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 2);
    }
}
