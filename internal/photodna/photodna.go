// Package photodna is the reproduction's stand-in for the Microsoft
// PhotoDNA Cloud Service and the UK Internet Watch Foundation (IWF)
// workflow the paper uses in §4.3: every downloaded image is hashed
// and matched against a hashlist of known child-abuse material; any
// match is immediately reported and the image deleted before any later
// pipeline stage (or researcher) can see it.
//
// Matching uses a robust perceptual hash (imagex.AHash) with a Hamming
// radius, reproducing PhotoDNA's documented robustness to compression
// and mild geometric distortion ("PhotoDNA leverages Robust Hashing to
// detect images that have been modified, e.g., using compression
// algorithms or geometric distortions").
//
// Everything in this package is synthetic: entries carry only abstract
// severity grades and metadata shaped like the IWF's published
// statistics. No real hashes or material are involved.
package photodna

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/imagex"
)

// Severity is the IWF's image grading.
type Severity int

// IWF severity categories, as defined in the paper: A involves
// penetrative sexual activity, B non-penetrative, C other indecent
// images.
const (
	SeverityUnknown Severity = iota
	CategoryA
	CategoryB
	CategoryC
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case CategoryA:
		return "A"
	case CategoryB:
		return "B"
	case CategoryC:
		return "C"
	default:
		return "?"
	}
}

// Region is a coarse hosting location, matching the paper's breakdown
// (UK / North America / other Europe).
type Region int

// Hosting regions.
const (
	RegionUnknown Region = iota
	RegionUK
	RegionNorthAmerica
	RegionEurope
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionUK:
		return "UK"
	case RegionNorthAmerica:
		return "North America"
	case RegionEurope:
		return "Europe"
	default:
		return "unknown"
	}
}

// SiteType classifies the kind of site a reported URL was found on.
type SiteType int

// Site types from the paper's IWF results.
const (
	SiteUnknown SiteType = iota
	SiteImageSharing
	SiteForum
	SiteBlog
	SiteSocialNetwork
	SiteVideoChannel
	SiteRegular
)

// String names the site type.
func (t SiteType) String() string {
	switch t {
	case SiteImageSharing:
		return "image sharing"
	case SiteForum:
		return "forum"
	case SiteBlog:
		return "blog"
	case SiteSocialNetwork:
		return "social network"
	case SiteVideoChannel:
		return "video channel"
	case SiteRegular:
		return "regular website"
	default:
		return "unknown"
	}
}

// RobustHash is the matching fingerprint. PhotoDNA's real hash is a
// 144-byte regional descriptor; the composite 128-bit perceptual hash
// reproduces the property that matters — robustness to recompression
// with strong discrimination between different source images.
type RobustHash = imagex.Hash128

// HashImage computes the robust hash of an image.
func HashImage(im *imagex.Image) RobustHash {
	return imagex.Hash128Of(im)
}

// Entry is one hashlist record.
type Entry struct {
	// ID identifies the record within the hashlist.
	ID int
	// Actionable reports whether the grading organisation can verify
	// the age of the person depicted; only actionable matches produce
	// URL actions. (In the paper, only some matches were actionable by
	// the IWF.)
	Actionable bool
	// Severity is the content grading (only meaningful if Actionable).
	Severity Severity
	// VictimAge is the assessed age (only meaningful if Actionable).
	VictimAge int
}

// HashList matches image hashes against known entries within a
// summed-Hamming radius. Safe for concurrent use.
//
// Matching is one linear scan over a dense slice. The study's hashlist
// holds a few dozen flagged images (36 at scale 1.0), so popcounting
// every entry is cheaper than probing any bucket index.
type HashList struct {
	mu     sync.RWMutex
	radius int
	// list holds the entries in insertion order — the dense layout the
	// scan walks, so matching touches no map.
	list []hashEntry
	// pos maps a hash to its list slot, for replacement on re-add.
	pos map[RobustHash]int32
}

// hashEntry is one stored (hash, entry) pair.
type hashEntry struct {
	hash  RobustHash
	entry Entry
}

// DefaultRadius is the matching radius used by the study: wide enough
// that recompression survives (a few bits per component), narrow
// enough that images of different people essentially never collide
// (unrelated composite hashes differ by ~50+ bits).
const DefaultRadius = 10

// NewHashList returns an empty hashlist with the given radius
// (DefaultRadius if radius <= 0).
func NewHashList(radius int) *HashList {
	if radius <= 0 {
		radius = DefaultRadius
	}
	return &HashList{radius: radius, pos: make(map[RobustHash]int32)}
}

// Add registers an entry under the hash of the given image.
func (hl *HashList) Add(im *imagex.Image, e Entry) {
	hl.AddHash(HashImage(im), e)
}

// AddHash registers an entry under a precomputed hash. Re-adding a
// hash replaces its entry.
func (hl *HashList) AddHash(h RobustHash, e Entry) {
	hl.mu.Lock()
	defer hl.mu.Unlock()
	if i, exists := hl.pos[h]; exists {
		hl.list[i].entry = e
		return
	}
	hl.pos[h] = int32(len(hl.list))
	hl.list = append(hl.list, hashEntry{hash: h, entry: e})
}

// Len returns the number of entries.
func (hl *HashList) Len() int {
	hl.mu.RLock()
	defer hl.mu.RUnlock()
	return len(hl.list)
}

// Match hashes the image and reports the closest entry within the
// radius.
func (hl *HashList) Match(im *imagex.Image) (Entry, bool) {
	return hl.MatchHash(HashImage(im))
}

// MatchHash reports the closest entry within the radius of h.
// Distance ties break on the lowest entry ID, so the winner never
// depends on insertion order (DESIGN.md §1 — the report filed for a
// match is part of the deterministic Results).
func (hl *HashList) MatchHash(h RobustHash) (Entry, bool) {
	hl.mu.RLock()
	defer hl.mu.RUnlock()
	best := hl.radius + 1
	var found Entry
	ok := false
	for i := range hl.list {
		ent := &hl.list[i]
		d := h.Distance(ent.hash)
		if d > best || d > hl.radius {
			continue
		}
		if d < best || !ok || ent.entry.ID < found.ID {
			best = d
			found = ent.entry
			ok = true
		}
	}
	return found, ok
}

// URLReport is one URL reported to the hotline alongside a match: the
// places (from reverse image search) where the same image was found.
type URLReport struct {
	URL      string
	Region   Region
	SiteType SiteType
}

// MatchReport records one matched-and-deleted image.
type MatchReport struct {
	Entry Entry
	// SourceThread and SourcePost locate where the link to the image
	// was posted (for the paper's analysis of who replied).
	SourceThread int
	SourcePost   int
	// URLs are the additional locations reported (§4.3: "We also
	// reported the URLs of other sites where these images were
	// located, obtained from the reverse image search").
	URLs []URLReport
}

// Hotline collects reports, standing in for the IWF. Safe for
// concurrent use.
type Hotline struct {
	mu      sync.Mutex
	reports []MatchReport
}

// NewHotline returns an empty hotline.
func NewHotline() *Hotline { return &Hotline{} }

// Report files a match report.
func (h *Hotline) Report(r MatchReport) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reports = append(h.reports, r)
}

// Reports returns a copy of all filed reports.
func (h *Hotline) Reports() []MatchReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]MatchReport, len(h.reports))
	copy(out, h.reports)
	return out
}

// ActionSummary aggregates the hotline's actionable URL reports the
// way the paper presents them: count per severity, hosting location
// and site type.
type ActionSummary struct {
	Matches        int
	ActionableURLs int
	BySeverity     map[Severity]int
	ByRegion       map[Region]int
	BySiteType     map[SiteType]int
}

// Summarize computes the action summary over all reports. Only
// actionable entries' URLs are actioned, mirroring the IWF's
// behaviour.
func (h *Hotline) Summarize() ActionSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := ActionSummary{
		BySeverity: make(map[Severity]int),
		ByRegion:   make(map[Region]int),
		BySiteType: make(map[SiteType]int),
	}
	s.Matches = len(h.reports)
	for _, r := range h.reports {
		if !r.Entry.Actionable {
			continue
		}
		for _, u := range r.URLs {
			s.ActionableURLs++
			s.BySeverity[r.Entry.Severity]++
			s.ByRegion[u.Region]++
			s.BySiteType[u.SiteType]++
		}
	}
	return s
}

// String renders the summary in the paper's reporting style.
func (s ActionSummary) String() string {
	sev := make([]string, 0, len(s.BySeverity))
	for k, v := range s.BySeverity {
		sev = append(sev, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(sev)
	return fmt.Sprintf("matches=%d actioned_urls=%d severity=%v",
		s.Matches, s.ActionableURLs, sev)
}
