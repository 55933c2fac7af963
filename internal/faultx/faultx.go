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
// The Injector plugs into the crawl through one seam: Transport wraps
// the http.RoundTripper the study's crawler uses against its embedded
// hosting server, so the crawl faces the adversary without the
// substrate knowing.
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
			// The negated range test also rejects NaN.
			if err != nil || !(rate >= 0 && rate <= 1) {
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

// String renders the plan in the profile grammar, hosts sorted, so
// ParseProfile(p.String()) yields an equal plan; a nil plan renders as
// "off". A scalar clause appears only where a host's schedule needs a
// value other than the one in force, so a plan parsed from a profile
// that kept the defaults renders without them.
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	hosts := make([]string, 0, len(p.Hosts))
	for h := range p.Hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	clauses := []string{"seed=" + strconv.FormatUint(p.Seed, 10)}
	if p.Rot != 0 {
		clauses = append(clauses, "rot="+strconv.FormatFloat(p.Rot, 'g', -1, 64))
	}
	// The scalars in force, starting from ParseProfile's defaults.
	scalars := map[string]string{"failures": "2", "retry-after": "1ms", "stall": "0s"}
	set := func(key, val string) {
		if scalars[key] != val {
			scalars[key] = val
			clauses = append(clauses, key+"="+val)
		}
	}
	for _, h := range hosts {
		hf := p.Hosts[h]
		// Every scheduled clause sets Failures and Stall from the
		// scalars, so one setting serves them all. Only ratelimit sets
		// RetryAfter, and a later flaky or reset keeps it.
		var sched []string
		if hf.Status == http.StatusTooManyRequests || hf.RetryAfter > 0 {
			sched = append(sched, "ratelimit")
		}
		if hf.Status == http.StatusInternalServerError {
			sched = append(sched, "flaky")
		}
		if hf.Reset {
			sched = append(sched, "reset")
		}
		if len(sched) == 0 && (hf.Failures > 0 || hf.Stall > 0) {
			sched = append(sched, "slow")
		}
		if len(sched) > 0 {
			set("failures", strconv.Itoa(hf.Failures))
			set("stall", hf.Stall.String())
			if sched[0] == "ratelimit" {
				set("retry-after", hf.RetryAfter.String())
			}
			for _, c := range sched {
				clauses = append(clauses, c+"="+h)
			}
		}
		if hf.Down {
			clauses = append(clauses, "down="+h)
		}
		// A rot clause also keeps a host whose entry is otherwise
		// empty ("rot=0@h" parses to one).
		if hf.RotRate != 0 || hf == (HostFault{}) {
			clauses = append(clauses, "rot="+strconv.FormatFloat(hf.RotRate, 'g', -1, 64)+"@"+h)
		}
	}
	return strings.Join(clauses, ";")
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
// logical host (the substrate site name, e.g. "imgur.com") and URL
// path.
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

// FormatRetryAfter renders a backoff hint as the header value the
// transport seam and the study service emit: fractional seconds, so
// millisecond-scale test schedules do not round up to whole-second
// sleeps.
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

// pathHost names the logical host of a hosting-substrate request,
// whose URLs are /<site>/<path...> under one server: the first path
// segment is the site.
func pathHost(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	return p
}

type transport struct {
	base http.RoundTripper
	inj  *Injector
}

// Transport wraps base with fault injection, keyed by the site each
// request's path names. A nil injector returns base unchanged; a nil
// base defaults to http.DefaultTransport.
func Transport(base http.RoundTripper, inj *Injector) http.RoundTripper {
	if inj == nil {
		return base
	}
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{base: base, inj: inj}
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	h := pathHost(req)
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
