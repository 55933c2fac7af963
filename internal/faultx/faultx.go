// Package faultx is the deterministic adversary: a seed-driven fault
// injection layer that makes the substrate behave like the hostile web
// the paper measured — rate-limiting image hosts (429 + Retry-After),
// intermittently flaky CDNs (5xx), slow or stalled bodies, connection
// resets, permanently dead hosts, and link rot.
//
// A fault Plan is parsed from a compact profile string (see
// ParseProfile) and compiled into an Injector whose Decide method is a
// pure function of (plan, host, url, per-url request count): no clocks,
// no global RNG. That purity is what makes chaos testing provable here
// — a retryable-only schedule (every URL succeeds within the consumer's
// retry budget) yields results bit-identical to the fault-free run, and
// an exhausted-host schedule fails the same URLs on every run.
//
// The same Injector plugs into both crawl seams:
//
//   - Transport wraps an http.RoundTripper, so the in-process
//     core.Backend path (which crawls its embedded hosting server over
//     a real HTTP client) faces the adversary without the substrate
//     knowing;
//   - Middleware wraps the substrate's HTTP handlers, so `ewserve
//     -faults` subjects remote crawlers to the identical schedule.
package faultx

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HostFault is the compiled fault behaviour for one host (or the "*"
// wildcard entry matching every host without an exact entry).
type HostFault struct {
	// Failures is how many times each distinct URL on this host fails
	// before requests start succeeding (the scheduled, self-healing
	// fault classes: ratelimit, flaky, reset, slow). Zero disables the
	// scheduled fault.
	Failures int
	// Status is the HTTP status synthesized while the scheduled fault
	// is active (429 for ratelimit, 500 for flaky; 0 for reset/slow).
	Status int
	// RetryAfter, when > 0, is the backoff hint attached to scheduled
	// fault responses as a Retry-After header (fractional seconds).
	RetryAfter time.Duration
	// Stall delays every scheduled-fault response by this much before
	// answering — the slow-body adversary. Honors request context.
	Stall time.Duration
	// Reset makes scheduled faults abort the connection instead of
	// answering, so the client sees a transport error, not a status.
	Reset bool
	// Down marks the host permanently dead: every request is answered
	// 500 with no Retry-After, forever. This is the exhausted-host
	// schedule — consumers must degrade, not hang or abort.
	Down bool
	// RotRate is this host's link-rot probability in [0,1]: each URL is
	// independently and permanently rotten (404) with this probability,
	// chosen by a pure hash of (seed, host, url).
	RotRate float64
}

// Plan is a parsed fault profile.
type Plan struct {
	// Seed drives the link-rot hash. Two plans with the same seed rot
	// the same URLs.
	Seed uint64
	// Rot is the global link-rot probability applied to every host
	// (from a bare "rot=F" clause); per-host RotRate overrides when
	// larger.
	Rot float64
	// Hosts maps host name (or "*") to its fault behaviour.
	Hosts map[string]HostFault
}

// scheduled reports whether f carries a per-URL scheduled fault.
func (f HostFault) scheduled() bool {
	return f.Failures > 0 && (f.Status != 0 || f.Reset || f.Stall > 0)
}

// ParseProfile parses a fault profile string into a Plan. The grammar
// is a semicolon-separated list of clauses:
//
//	seed=N                 link-rot hash seed (default 2019)
//	failures=K             per-URL failure count for later scheduled
//	                       clauses (default 2)
//	retry-after=DUR        Retry-After hint for later ratelimit clauses
//	                       (default 1ms)
//	stall=DUR              response delay for later scheduled clauses
//	ratelimit=h1,h2 | *    429 + Retry-After for the first K requests
//	                       of each URL
//	flaky=h1,h2 | *        500 for the first K requests of each URL
//	reset=h1,h2 | *        connection reset for the first K requests
//	slow=h1,h2 | *         stalled (but successful) responses for the
//	                       first K requests of each URL
//	down=h1,h2 | *         host permanently dead (500, no hint)
//	rot=F | rot=F@h1,h2    link rot probability F in [0,1], globally or
//	                       for the named hosts
//
// Scalar clauses (seed, failures, retry-after, stall) apply to the
// host clauses that follow them, so "failures=1;flaky=a.com;
// failures=5;flaky=b.com" gives the two hosts different schedules.
// An empty string or "off" yields a nil Plan (no injection).
func ParseProfile(profile string) (*Plan, error) {
	profile = strings.TrimSpace(profile)
	if profile == "" || profile == "off" {
		return nil, nil
	}
	plan := &Plan{Seed: 2019, Hosts: map[string]HostFault{}}
	failures := 2
	retryAfter := time.Millisecond
	stall := time.Duration(0)

	merge := func(host string, apply func(*HostFault)) {
		hf := plan.Hosts[host]
		apply(&hf)
		plan.Hosts[host] = hf
	}
	for _, clause := range strings.Split(profile, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("faultx: clause %q is not key=value", clause)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultx: bad seed %q", val)
			}
			plan.Seed = n
		case "failures":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faultx: bad failures %q", val)
			}
			failures = n
		case "retry-after":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultx: bad retry-after %q", val)
			}
			retryAfter = d
		case "stall":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultx: bad stall %q", val)
			}
			stall = d
		case "ratelimit":
			for _, h := range splitHosts(val) {
				f, ra, st := failures, retryAfter, stall
				merge(h, func(hf *HostFault) {
					hf.Failures, hf.Status, hf.RetryAfter, hf.Stall = f, http.StatusTooManyRequests, ra, st
				})
			}
		case "flaky":
			for _, h := range splitHosts(val) {
				f, st := failures, stall
				merge(h, func(hf *HostFault) {
					hf.Failures, hf.Status, hf.Stall = f, http.StatusInternalServerError, st
				})
			}
		case "reset":
			for _, h := range splitHosts(val) {
				f, st := failures, stall
				merge(h, func(hf *HostFault) {
					hf.Failures, hf.Reset, hf.Stall = f, true, st
				})
			}
		case "slow":
			for _, h := range splitHosts(val) {
				f, st := failures, stall
				if st <= 0 {
					st = time.Millisecond
				}
				merge(h, func(hf *HostFault) {
					hf.Failures, hf.Stall = f, st
				})
			}
		case "down":
			for _, h := range splitHosts(val) {
				merge(h, func(hf *HostFault) { hf.Down = true })
			}
		case "rot":
			spec, hosts, scoped := strings.Cut(val, "@")
			rate, err := strconv.ParseFloat(strings.TrimSpace(spec), 64)
			if err != nil || rate < 0 || rate > 1 {
				return nil, fmt.Errorf("faultx: bad rot rate %q", val)
			}
			if scoped {
				for _, h := range splitHosts(hosts) {
					merge(h, func(hf *HostFault) { hf.RotRate = rate })
				}
			} else {
				plan.Rot = rate
			}
		default:
			return nil, fmt.Errorf("faultx: unknown clause %q", key)
		}
	}
	return plan, nil
}

func splitHosts(val string) []string {
	var out []string
	for _, h := range strings.Split(val, ",") {
		if h = strings.TrimSpace(h); h != "" {
			out = append(out, h)
		}
	}
	return out
}

// String renders the plan's host table for logs and reports, sorted
// for determinism.
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	hosts := make([]string, 0, len(p.Hosts))
	for h := range p.Hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	if p.Rot > 0 {
		fmt.Fprintf(&b, " rot=%g", p.Rot)
	}
	for _, h := range hosts {
		hf := p.Hosts[h]
		fmt.Fprintf(&b, " %s{", h)
		switch {
		case hf.Down:
			b.WriteString("down")
		case hf.Reset:
			fmt.Fprintf(&b, "reset×%d", hf.Failures)
		case hf.Status != 0:
			fmt.Fprintf(&b, "%d×%d", hf.Status, hf.Failures)
		case hf.Stall > 0:
			fmt.Fprintf(&b, "slow×%d", hf.Failures)
		}
		if hf.RotRate > 0 {
			fmt.Fprintf(&b, " rot=%g", hf.RotRate)
		}
		b.WriteString("}")
	}
	return b.String()
}

// Decision is the injector's verdict for one request.
type Decision struct {
	// Status, when non-zero, is the synthesized response status; the
	// request never reaches the real handler.
	Status int
	// RetryAfter, when > 0, rides the synthesized response as a
	// Retry-After header (fractional seconds).
	RetryAfter time.Duration
	// Stall delays the response (faulted or passed-through) by this
	// much, honoring the request context.
	Stall time.Duration
	// Reset aborts the exchange with a transport-level error instead
	// of a response.
	Reset bool
}

// Fault reports whether the decision alters the exchange at all.
func (d Decision) Fault() bool {
	return d.Status != 0 || d.Reset || d.Stall > 0
}

// Injector evaluates a Plan against requests. The only mutable state
// is the per-(host,url) request counter behind the scheduled fault
// classes; everything else is a pure function of the plan.
type Injector struct {
	plan *Plan

	mu     sync.Mutex
	counts map[string]int
}

// NewInjector compiles a plan. A nil plan yields a nil injector, which
// every entry point treats as "no injection".
func NewInjector(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	return &Injector{plan: plan, counts: map[string]int{}}
}

// Decide returns the fault decision for one request identified by its
// logical host (the substrate site name, e.g. "imgur.com", or a fixed
// service name like "reverse") and URL path.
//
// Precedence: a Down host always fails; then link rot (permanent 404
// by pure hash); then the host's scheduled fault while its per-URL
// counter is below Failures.
func (inj *Injector) Decide(host, url string) Decision {
	if inj == nil {
		return Decision{}
	}
	hf, ok := inj.plan.Hosts[host]
	if !ok {
		hf, ok = inj.plan.Hosts["*"]
	}
	if hf.Down {
		return Decision{Status: http.StatusInternalServerError, Stall: hf.Stall}
	}
	rot := inj.plan.Rot
	if hf.RotRate > rot {
		rot = hf.RotRate
	}
	if rot > 0 && rotHash(inj.plan.Seed, host, url) < rot {
		return Decision{Status: http.StatusNotFound}
	}
	if !ok || !hf.scheduled() {
		return Decision{}
	}
	key := host + "\x00" + url
	inj.mu.Lock()
	n := inj.counts[key]
	if n < hf.Failures {
		inj.counts[key] = n + 1
	}
	inj.mu.Unlock()
	if n >= hf.Failures {
		return Decision{}
	}
	return Decision{Status: hf.Status, RetryAfter: hf.RetryAfter, Stall: hf.Stall, Reset: hf.Reset}
}

// rotHash maps (seed, host, url) to [0,1) — cheap, stable across runs
// and platforms, and independent of request order. FNV-1a alone leaves
// the trailing bytes' influence in the low bits, so a 64-bit avalanche
// finalizer runs before the high 53 bits become the mantissa.
func rotHash(seed uint64, host, url string) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(host))
	h.Write([]byte{0})
	h.Write([]byte(url))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// FormatRetryAfter renders a backoff hint as the header value both
// seams emit: fractional seconds, so millisecond-scale test schedules
// do not round up to whole-second sleeps.
func FormatRetryAfter(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
}

// ParseRetryAfter parses a Retry-After header value as (possibly
// fractional) seconds, rounded to the nearest nanosecond. Returns 0 for
// anything unparseable, non-positive, non-finite or too large for a
// Duration, including the HTTP-date form this system never emits.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || !(secs > 0) {
		return 0
	}
	// A Duration ends below 2^63 ns (float64(math.MaxInt64) rounds up
	// to 2^63 itself); the bound also catches +Inf.
	ns := math.Round(secs * float64(time.Second))
	if ns >= 1<<63 {
		return 0
	}
	return time.Duration(ns)
}

// ResetError is the transport-level error surfaced for Reset faults.
type ResetError struct {
	Host string
}

func (e *ResetError) Error() string {
	return "faultx: connection reset by " + e.Host
}

// HostFunc extracts the logical host from a request for Decide.
type HostFunc func(*http.Request) string

// PathHost is the HostFunc for the hosting substrate, whose URLs are
// /<site>/<path...> under one server: the first path segment is the
// site. It is the default everywhere a nil HostFunc is passed.
func PathHost(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return p
}

// FixedHost returns a HostFunc that names every request the same —
// for single-purpose services like the reverse-search or wayback
// endpoints, which are one logical host each.
func FixedHost(host string) HostFunc {
	return func(*http.Request) string { return host }
}

type transport struct {
	base http.RoundTripper
	inj  *Injector
	host HostFunc
}

// Transport wraps base with fault injection — the in-process seam. A
// nil injector returns base unchanged; a nil host defaults to
// PathHost; a nil base defaults to http.DefaultTransport.
func Transport(base http.RoundTripper, inj *Injector, host HostFunc) http.RoundTripper {
	if inj == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	if host == nil {
		host = PathHost
	}
	return &transport{base: base, inj: inj, host: host}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := t.host(req)
	d := t.inj.Decide(h, req.URL.Path)
	if d.Stall > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d.Stall):
		}
	}
	if d.Reset {
		return nil, &ResetError{Host: h}
	}
	if d.Status == 0 {
		return t.base.RoundTrip(req)
	}
	header := make(http.Header)
	if d.RetryAfter > 0 {
		header.Set("Retry-After", FormatRetryAfter(d.RetryAfter))
	}
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", d.Status, http.StatusText(d.Status)),
		StatusCode:    d.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        header,
		Body:          http.NoBody,
		ContentLength: 0,
		Request:       req,
	}, nil
}

// Middleware wraps an HTTP handler with fault injection — the remote
// seam, applied by `ewserve -faults` to the substrate handlers. A nil
// injector is the identity; a nil host defaults to PathHost. Reset
// faults abort the connection via http.ErrAbortHandler, which the
// client observes as an EOF-class transport error, matching the
// Transport seam's behaviour.
func Middleware(inj *Injector, host HostFunc) func(http.Handler) http.Handler {
	if host == nil {
		host = PathHost
	}
	return func(next http.Handler) http.Handler {
		if inj == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d := inj.Decide(host(r), r.URL.Path)
			if d.Stall > 0 {
				select {
				case <-r.Context().Done():
					return
				case <-time.After(d.Stall):
				}
			}
			if d.Reset {
				panic(http.ErrAbortHandler)
			}
			if d.Status != 0 {
				if d.RetryAfter > 0 {
					w.Header().Set("Retry-After", FormatRetryAfter(d.RetryAfter))
				}
				http.Error(w, "faultx: injected fault", d.Status)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
