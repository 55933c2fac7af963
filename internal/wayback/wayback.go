// Package wayback is the reproduction's Internet Archive Wayback
// Machine: a snapshot index recording when URLs were captured. The
// provenance analysis (§4.5) uses it to decide whether a matched URL
// was online before the image was posted in the forum ("to analyse
// whether the images were online before they were posted in the
// forums, we have used the Wayback Machine").
package wayback

import (
	"sort"
	"sync"
	"time"
)

// Archive is a snapshot index. Safe for concurrent use.
type Archive struct {
	mu    sync.RWMutex
	snaps map[string][]time.Time // sorted ascending
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{snaps: make(map[string][]time.Time)}
}

// Add records a capture of the URL at time t.
func (a *Archive) Add(rawURL string, t time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.snaps[rawURL]
	i := sort.Search(len(s), func(i int) bool { return s[i].After(t) })
	s = append(s, time.Time{})
	copy(s[i+1:], s[i:])
	s[i] = t
	a.snaps[rawURL] = s
}

// NumURLs returns the number of distinct archived URLs.
func (a *Archive) NumURLs() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.snaps)
}

// FirstSeen returns the earliest capture of the URL.
func (a *Archive) FirstSeen(rawURL string) (time.Time, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s := a.snaps[rawURL]
	if len(s) == 0 {
		return time.Time{}, false
	}
	return s[0], true
}

// SeenBefore reports whether the URL was captured strictly before the
// cutoff.
func (a *Archive) SeenBefore(rawURL string, cutoff time.Time) bool {
	t, ok := a.FirstSeen(rawURL)
	return ok && t.Before(cutoff)
}
