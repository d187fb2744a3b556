package resilience

// RetryBudget is a token-bucket retry budget: each success deposits Ratio
// tokens, each retry withdraws one, and the balance is capped at Burst.
// When the bucket is empty further retries are denied, which caps
// system-wide retry traffic at roughly Ratio × the success rate plus the
// Burst allowance — the mechanism that stops independent per-layer retries
// from amplifying an overload into a retry storm (cf. Finagle's
// RetryBudget and the Google SRE book's retry-budget guidance).
//
// The budget is pure counter arithmetic: no clock, no RNG, so sharing one
// across the processes of a deterministic simulation is reproducible. A
// nil *RetryBudget grants every retry (the unprotected seed behaviour).
type RetryBudget struct {
	ratio  float64
	burst  float64
	tokens float64
}

// NewRetryBudget returns a budget earning ratio tokens per success with an
// initial (and maximum) balance of burst tokens. A burst below 1 would
// deny even the first retry after a cold start, so it is clamped to 1.
func NewRetryBudget(ratio, burst float64) *RetryBudget {
	if burst < 1 {
		burst = 1
	}
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// OnSuccess deposits the per-success earnings, up to the burst cap.
func (b *RetryBudget) OnSuccess() {
	if b == nil {
		return
	}
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// tokenEps absorbs float accumulation error so that e.g. ten deposits of
// 0.1 are worth exactly one retry.
const tokenEps = 1e-9

// TryRetry withdraws one token if available and reports whether the retry
// may proceed. A nil budget always grants.
func (b *RetryBudget) TryRetry() bool {
	if b == nil {
		return true
	}
	if b.tokens >= 1-tokenEps {
		b.tokens--
		return true
	}
	return false
}
