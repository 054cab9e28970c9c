//! Sliding-window moving average and exponentially weighted moving average.
//!
//! Section 4.1 of the paper preprocesses the raw PCM statistics
//! `{A_1, A_2, ...}` in two steps:
//!
//! 1. **Moving average (Eq. 1)** over a window of `W` raw points, sliding
//!    by `ΔW` points: `M_n = (1/W) Σ_{i=1+nΔW}^{W+nΔW} A_i`.
//! 2. **EWMA (Eq. 2)** over the MA series:
//!    `S_0 = M_0`, `S_n = (1 − α) S_{n−1} + α M_n`.
//!
//! Both are implemented here as *streaming* operators: a raw sample goes
//! in, and whenever enough data has accumulated an output value comes out.
//! This is what makes SDS "responsive" — no batching or throttling is
//! required to produce the monitored series.

use crate::StatsError;

/// Streaming sliding-window moving average (Eq. 1 of the paper).
///
/// Emits the mean of the latest `window` samples every `step` samples,
/// once the first full window has been observed.
///
/// # Example
///
/// ```rust
/// use memdos_stats::smoothing::MovingAverage;
///
/// let mut ma = MovingAverage::new(4, 2).unwrap();
/// let outputs: Vec<f64> = (1..=8).filter_map(|x| ma.push(x as f64)).collect();
/// // Windows: [1,2,3,4] -> 2.5, [3,4,5,6] -> 4.5, [5,6,7,8] -> 6.5
/// assert_eq!(outputs, vec![2.5, 4.5, 6.5]);
/// ```
#[derive(Debug, Clone)]
pub struct MovingAverage {
    window: usize,
    step: usize,
    /// Ring buffer of the last `window` samples.
    buf: Vec<f64>,
    /// Next write position in `buf`.
    head: usize,
    /// Total samples seen.
    seen: u64,
    /// Running sum of the samples currently in `buf`.
    sum: f64,
    /// Samples seen since the last emitted window.
    since_emit: usize,
    /// Number of MA values emitted so far.
    emitted: u64,
}

impl MovingAverage {
    /// Creates a moving-average operator with window size `window` (the
    /// paper's `W`) and slide step `step` (the paper's `ΔW`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `window == 0`,
    /// `step == 0`, or `step > window`.
    pub fn new(window: usize, step: usize) -> Result<Self, StatsError> {
        if window == 0 {
            return Err(StatsError::InvalidParameter {
                name: "window",
                reason: "window size W must be positive",
            });
        }
        if step == 0 {
            return Err(StatsError::InvalidParameter {
                name: "step",
                reason: "slide step ΔW must be positive",
            });
        }
        if step > window {
            return Err(StatsError::InvalidParameter {
                name: "step",
                reason: "slide step ΔW must not exceed window size W",
            });
        }
        Ok(MovingAverage {
            window,
            step,
            buf: Vec::with_capacity(window),
            head: 0,
            seen: 0,
            sum: 0.0,
            since_emit: 0,
            emitted: 0,
        })
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Slide step `ΔW`.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Number of MA values emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Heap bytes held by the sample ring buffer — a deterministic
    /// capacity-based accounting figure for resident-memory estimates
    /// (the buffer is the operator's only allocation).
    pub fn resident_bytes_hint(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<f64>()
    }

    /// Feeds one raw sample; returns `Some(M_n)` when a new window
    /// completes (every `ΔW` samples once `W` samples have been seen).
    ///
    /// Amortized `O(1)`: emission divides the running sum instead of
    /// re-summing the window, and the sum is re-derived from the buffer
    /// once per full window turnover so add/subtract rounding drift cannot
    /// accumulate over long-running streams.
    pub fn push(&mut self, sample: f64) -> Option<f64> {
        if self.buf.len() < self.window {
            self.buf.push(sample);
            self.sum += sample;
        } else {
            if let Some(slot) = self.buf.get_mut(self.head) {
                self.sum += sample - *slot;
                *slot = sample;
            }
            self.head += 1;
            if self.head == self.window {
                self.head = 0;
                // Periodic exact resync (one pass per W samples).
                self.sum = self.buf.iter().sum();
            }
        }
        self.seen += 1;
        if self.seen < self.window as u64 {
            return None;
        }
        if self.seen == self.window as u64 {
            self.since_emit = 0;
            self.emitted += 1;
            return Some(self.mean());
        }
        self.since_emit += 1;
        if self.since_emit == self.step {
            self.since_emit = 0;
            self.emitted += 1;
            Some(self.mean())
        } else {
            None
        }
    }

    /// Returns the operator to its freshly constructed state, keeping
    /// the ring buffer's allocation: the next push behaves exactly as
    /// the first push into `MovingAverage::new(window, step)` would.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.seen = 0;
        self.sum = 0.0;
        self.since_emit = 0;
        self.emitted = 0;
    }

    /// The window mean from the running sum — `O(1)` per emission.
    fn mean(&self) -> f64 {
        self.sum / self.window as f64
    }

    /// Applies the operator to a whole slice, returning the MA series
    /// `{M_0, M_1, ...}`.
    pub fn apply(window: usize, step: usize, data: &[f64]) -> Result<Vec<f64>, StatsError> {
        let mut op = MovingAverage::new(window, step)?;
        Ok(data.iter().filter_map(|&x| op.push(x)).collect())
    }
}

/// Streaming exponentially weighted moving average (Eq. 2 of the paper).
///
/// `S_0 = M_0`; `S_n = (1 − α) S_{n−1} + α M_n` thereafter. A larger `α`
/// reduces smoothing and gives more weight to recent data.
///
/// # Example
///
/// ```rust
/// use memdos_stats::smoothing::Ewma;
///
/// let mut ewma = Ewma::new(0.5).unwrap();
/// assert_eq!(ewma.push(4.0), 4.0);          // S_0 = M_0
/// assert_eq!(ewma.push(8.0), 6.0);          // 0.5*4 + 0.5*8
/// assert_eq!(ewma.value(), Some(6.0));
/// ```
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA operator with smoothing factor `alpha`.
    ///
    /// The paper requires `0 < α < 1` in Eq. (2); `α = 1` is additionally
    /// accepted because the sensitivity study (Fig. 13) sweeps `α` up to
    /// 1.0, where "the EWMA time series is equivalent to the MA time
    /// series".
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `alpha` is not in
    /// `(0, 1]` or is NaN.
    pub fn new(alpha: f64) -> Result<Self, StatsError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "alpha",
                reason: "EWMA smoothing factor must be in (0, 1]",
            });
        }
        Ok(Ewma { alpha, state: None })
    }

    /// Smoothing factor `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current smoothed value `S_n`, if any input has been seen.
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// Feeds one MA value and returns the updated smoothed value `S_n`.
    pub fn push(&mut self, m: f64) -> f64 {
        let s = match self.state {
            None => m,
            Some(prev) => (1.0 - self.alpha) * prev + self.alpha * m,
        };
        self.state = Some(s);
        s
    }

    /// Resets the operator to its initial (empty) state.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Applies the operator to a whole slice, returning `{S_0, S_1, ...}`.
    pub fn apply(alpha: f64, data: &[f64]) -> Result<Vec<f64>, StatsError> {
        let mut op = Ewma::new(alpha)?;
        Ok(data.iter().map(|&m| op.push(m)).collect())
    }
}

/// The full Section 4.1 preprocessing pipeline: raw samples → MA → EWMA.
///
/// Feeding raw PCM samples yields an EWMA value every `ΔW` raw samples
/// (after the initial `W`-sample fill), exactly the cadence SDS/B checks
/// its boundary condition at.
///
/// # Example
///
/// ```rust
/// use memdos_stats::smoothing::Pipeline;
///
/// let mut p = Pipeline::new(200, 50, 0.2).unwrap();
/// let mut outputs = 0;
/// for i in 0..1000u32 {
///     if p.push(f64::from(i)).is_some() {
///         outputs += 1;
///     }
/// }
/// // First output after 200 samples, then one per 50: 1 + (1000-200)/50
/// assert_eq!(outputs, 17);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    ma: MovingAverage,
    ewma: Ewma,
}

/// One output of [`Pipeline::push`]: the MA value `M_n` and the EWMA value
/// `S_n` for the window that just completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Smoothed {
    /// Moving-average value `M_n` (Eq. 1).
    pub ma: f64,
    /// EWMA value `S_n` (Eq. 2).
    pub ewma: f64,
}

impl Pipeline {
    /// Creates the preprocessing pipeline with window `W`, step `ΔW` and
    /// EWMA factor `α`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation from [`MovingAverage::new`] and
    /// [`Ewma::new`].
    pub fn new(window: usize, step: usize, alpha: f64) -> Result<Self, StatsError> {
        Ok(Pipeline {
            ma: MovingAverage::new(window, step)?,
            ewma: Ewma::new(alpha)?,
        })
    }

    /// Feeds one raw sample; returns the smoothed pair when a window
    /// completes.
    pub fn push(&mut self, raw: f64) -> Option<Smoothed> {
        let m = self.ma.push(raw)?;
        let s = self.ewma.push(m);
        Some(Smoothed { ma: m, ewma: s })
    }

    /// Number of smoothed values emitted so far.
    pub fn emitted(&self) -> u64 {
        self.ma.emitted()
    }

    /// Window size `W`.
    pub fn window(&self) -> usize {
        self.ma.window()
    }

    /// Slide step `ΔW`.
    pub fn step(&self) -> usize {
        self.ma.step()
    }

    /// Returns the pipeline to its freshly constructed state, keeping
    /// the MA ring buffer's allocation (see [`MovingAverage::reset`]).
    pub fn reset(&mut self) {
        self.ma.reset();
        self.ewma.reset();
    }

    /// Heap bytes held by the pipeline (the MA ring buffer; the EWMA is
    /// two scalars). See [`MovingAverage::resident_bytes_hint`].
    pub fn resident_bytes_hint(&self) -> usize {
        self.ma.resident_bytes_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ma_rejects_bad_parameters() {
        assert!(MovingAverage::new(0, 1).is_err());
        assert!(MovingAverage::new(4, 0).is_err());
        assert!(MovingAverage::new(4, 5).is_err());
        assert!(MovingAverage::new(4, 4).is_ok());
    }

    #[test]
    fn ma_emits_at_correct_cadence() {
        let mut ma = MovingAverage::new(3, 1).unwrap();
        assert_eq!(ma.push(1.0), None);
        assert_eq!(ma.push(2.0), None);
        assert_eq!(ma.push(3.0), Some(2.0));
        assert_eq!(ma.push(4.0), Some(3.0));
        assert_eq!(ma.push(5.0), Some(4.0));
        assert_eq!(ma.emitted(), 3);
    }

    #[test]
    fn ma_matches_paper_equation_one() {
        // With W=4, ΔW=2 the n-th window is {A_{1+2n} .. A_{4+2n}} (1-based).
        let data: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let out = MovingAverage::apply(4, 2, &data).unwrap();
        assert_eq!(out, vec![2.5, 4.5, 6.5, 8.5]);
    }

    #[test]
    fn ma_constant_input_is_exact_forever() {
        let mut ma = MovingAverage::new(8, 8).unwrap();
        let mut last = None;
        for _ in 0..100_000 {
            if let Some(v) = ma.push(7.25) {
                last = Some(v);
            }
        }
        assert_eq!(last, Some(7.25));
    }

    #[test]
    fn ewma_rejects_bad_alpha() {
        assert!(Ewma::new(0.0).is_err());
        assert!(Ewma::new(-0.1).is_err());
        assert!(Ewma::new(1.1).is_err());
        assert!(Ewma::new(f64::NAN).is_err());
        assert!(Ewma::new(1.0).is_ok());
    }

    #[test]
    fn ewma_alpha_one_is_identity() {
        let mut e = Ewma::new(1.0).unwrap();
        assert_eq!(e.push(3.0), 3.0);
        assert_eq!(e.push(-8.0), -8.0);
    }

    #[test]
    fn ewma_matches_paper_equation_two() {
        let alpha = 0.2;
        let ms = [10.0, 20.0, 30.0];
        let out = Ewma::apply(alpha, &ms).unwrap();
        assert_eq!(out[0], 10.0);
        assert!((out[1] - (0.8 * 10.0 + 0.2 * 20.0)).abs() < 1e-12);
        assert!((out[2] - (0.8 * out[1] + 0.2 * 30.0)).abs() < 1e-12);
    }

    #[test]
    fn ewma_reset_forgets_state() {
        let mut e = Ewma::new(0.5).unwrap();
        e.push(100.0);
        e.reset();
        assert_eq!(e.value(), None);
        assert_eq!(e.push(2.0), 2.0);
    }

    #[test]
    fn pipeline_cadence_matches_ma() {
        let mut p = Pipeline::new(10, 5, 0.3).unwrap();
        let mut count = 0;
        for i in 0..100 {
            if p.push(i as f64).is_some() {
                count += 1;
            }
        }
        // 1 at sample 10, then one per 5 samples: 1 + (100 - 10)/5 = 19.
        assert_eq!(count, 19);
        assert_eq!(p.emitted(), 19);
    }

    #[test]
    fn reset_then_feed_matches_a_fresh_operator_bit_for_bit() {
        let signal = |i: u64, phase: f64| (i as f64 * 0.37 + phase).sin() * 1e3 + 1.0 / 3.0;
        for (window, step) in [(7, 3), (60, 10), (4, 4)] {
            let mut recycled = Pipeline::new(window, step, 0.3).unwrap();
            for i in 0..1_003 {
                recycled.push(signal(i, 0.5));
            }
            let capacity = recycled.resident_bytes_hint();
            recycled.reset();
            assert_eq!(recycled.emitted(), 0);
            assert_eq!(recycled.resident_bytes_hint(), capacity, "reset keeps the buffer");
            let mut fresh = Pipeline::new(window, step, 0.3).unwrap();
            for i in 0..517 {
                let (a, b) = (recycled.push(signal(i, 2.0)), fresh.push(signal(i, 2.0)));
                let bits = |s: Option<Smoothed>| s.map(|s| (s.ma.to_bits(), s.ewma.to_bits()));
                assert_eq!(bits(a), bits(b), "W={window} dW={step} sample {i}");
            }
            assert_eq!(recycled.emitted(), fresh.emitted());
        }
    }

    #[test]
    fn pipeline_first_output_equals_ma() {
        let mut p = Pipeline::new(4, 2, 0.2).unwrap();
        let mut first = None;
        for x in [1.0, 2.0, 3.0, 4.0] {
            if let Some(s) = p.push(x) {
                first = Some(s);
            }
        }
        let s = first.unwrap();
        assert_eq!(s.ma, 2.5);
        assert_eq!(s.ewma, 2.5); // S_0 = M_0
    }
}
