//! The one running count of a replay, held by the simulator's step and by
//! `lhr-proto`'s serving tally alike: the warmup cut, the measured
//! requests' [`Totals`], the metadata peak, the window series fed from
//! those totals, its flush at finish, and the shard-order merge. What a
//! layer counts beyond the shared fields it adds to the [`Totals`] that
//! [`Ledger::count`] hands back; its sampling cadence ([`Ledger::tick`])
//! and the names of the counters it leaves on its recorder stay its own.
//!
//! **The window rule.** [`Ledger::observe`] runs *before* the policy sees
//! request `i` and before [`Ledger::count`] includes it, so a window
//! flushed there holds exactly the requests before this one, and the
//! snapshot it flushes from reads the policy's eviction counter live.
//! Snapshots are taken only at window edges.

use lhr_obs::series::{SeriesAcc, Totals};
use lhr_obs::Obs;
use lhr_trace::Request;

/// One policy instance's count — the whole run's, or one shard's — and,
/// after [`Ledger::merge`], the run's totals.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Leading requests, by global trace index, that are not measured.
    warmup: usize,
    seen: u64,
    totals: Totals,
    peak_meta: u64,
    warmup_evictions: u64,
    /// The recorder this instance feeds, and — until [`Ledger::finish`] —
    /// the window series it keeps for it.
    obs: Option<Obs>,
    series: Option<SeriesAcc>,
}

impl Ledger {
    /// A ledger recording straight into `obs`, measuring from trace index
    /// `warmup` on.
    pub fn new(warmup: usize, obs: Option<Obs>) -> Self {
        Ledger {
            warmup,
            series: obs.as_ref().map(|o| SeriesAcc::new(o.window())),
            obs,
            ..Ledger::default()
        }
    }

    /// One shard's ledger: it records into a private recorder built from
    /// `master`'s configuration, which [`Ledger::merge`] absorbs in shard
    /// order.
    pub fn shard(master: Option<&Obs>, warmup: usize) -> Self {
        Ledger::new(warmup, master.map(|m| Obs::new(m.config().clone())))
    }

    /// The recorder this ledger feeds (what shard policies attach to).
    #[inline]
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Whether trace index `i` is past the warmup cut.
    #[inline]
    pub fn measures(&self, i: usize) -> bool {
        i >= self.warmup
    }

    /// Counts one stepped request; true when the requests stepped before
    /// it are a multiple of `every` (the first one included) — when the
    /// layer samples metadata.
    #[inline]
    pub fn tick(&mut self, every: u64) -> bool {
        let due = self.seen.is_multiple_of(every);
        self.seen += 1;
        due
    }

    /// Folds one metadata-overhead sample into the peak.
    #[inline]
    pub fn sample_meta(&mut self, bytes: u64) {
        self.peak_meta = self.peak_meta.max(bytes);
    }

    /// Shows the window series request `i` before the policy sees it (the
    /// window rule in the module docs); `evictions` reads the policy's
    /// lifetime eviction counter and is only called at a window edge.
    #[inline]
    pub fn observe(&mut self, i: usize, req: &Request, evictions: impl FnOnce() -> u64) {
        let Some(acc) = self.series.as_mut().filter(|_| i >= self.warmup) else {
            return;
        };
        let (totals, warmup_evictions) = (&self.totals, &mut self.warmup_evictions);
        acc.observe(req.ts.as_micros(), || {
            let evictions = evictions();
            if totals.requests == 0 {
                *warmup_evictions = evictions;
            }
            Totals {
                evictions,
                ..*totals
            }
        });
    }

    /// Counts one measured request of `size` bytes, and hands back the
    /// totals for the fields only the layer knows how to fill.
    #[inline]
    pub fn count(&mut self, size: u64, hit: bool) -> &mut Totals {
        let t = &mut self.totals;
        t.requests += 1;
        t.bytes_requested += size as u128;
        t.hits += hit as u64;
        t.bytes_hit += hit as u128 * size as u128;
        t
    }

    /// The window index the latest observed request was credited to (what
    /// a sampled request trace is stamped with).
    #[inline]
    pub fn window_index(&self) -> u64 {
        self.series.as_ref().map_or(0, SeriesAcc::last_index)
    }

    /// Closes the instance's run once its requests are exhausted: records
    /// the policy's lifetime `evictions` and flushes the window series
    /// into the recorder.
    pub fn finish(&mut self, evictions: u64) {
        self.totals.evictions = evictions;
        if self.totals.requests == 0 {
            self.warmup_evictions = evictions;
        }
        if let (Some(acc), Some(obs)) = (self.series.take(), &self.obs) {
            obs.push_windows(acc.finish(self.totals));
        }
    }

    /// Merges finished shard ledgers **in the order given** — callers pass
    /// fixed shard order, so sums associate identically at any thread
    /// count — and absorbs their private recorders into `master` in the
    /// same order. The peak is the sum of per-shard peaks, which need not
    /// have coincided.
    pub fn merge<'a>(
        shards: impl IntoIterator<Item = &'a mut Ledger>,
        master: Option<&Obs>,
    ) -> Self {
        let mut total = Ledger::default();
        let mut recorders = Vec::new();
        for shard in shards {
            recorders.extend(shard.obs.take());
            total.seen += shard.seen;
            total.totals += &shard.totals;
            total.peak_meta += shard.peak_meta;
        }
        if let Some(master) = master {
            master.absorb_shards(&recorders);
        }
        total
    }

    /// Requests stepped, warmup included.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The measured requests' running totals (`evictions` is the policy's
    /// lifetime count once finished).
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// Peak sampled metadata bytes (summed over shards once merged).
    pub fn peak_meta(&self) -> u64 {
        self.peak_meta
    }

    /// The policy's eviction counter when the first measured request
    /// arrived (all of them when none did), once finished; kept only while
    /// recording.
    pub fn warmup_evictions(&self) -> u64 {
        self.warmup_evictions
    }
}
