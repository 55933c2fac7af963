// Package cliutil holds the small helpers the command-line tools
// share: remote-study submission (ewpipeline -remote and the benchmark
// harness route through the same client path), -only list parsing and
// service readiness polling (ewsweep -load waits for a booting
// ewserve before driving it).
package cliutil

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/studysvc"
)

// SplitNames parses a comma-separated -only list into trimmed,
// non-empty names ("table5, figure2" → ["table5" "figure2"]). An
// empty string yields nil — no selection, meaning everything.
func SplitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if name := strings.TrimSpace(part); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// RunRemote submits a study request to a live study service and waits
// for a completed envelope; a failed or unfinished run is an error.
func RunRemote(ctx context.Context, baseURL string, req studysvc.Request) (*studysvc.Envelope, error) {
	c := studysvc.NewClient(baseURL, nil)
	env, err := c.Run(ctx, req)
	if err != nil {
		return nil, err
	}
	if env.Status != studysvc.StatusDone {
		return nil, fmt.Errorf("run %s %s: %s", env.ID, env.Status, env.Error)
	}
	return env, nil
}

// WaitReady polls the study service's /v1/stats until it answers or
// the timeout elapses — the boot barrier scripts use between starting
// an ewserve in the background and driving load at it.
func WaitReady(ctx context.Context, baseURL string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	c := studysvc.NewClient(baseURL, nil)
	var lastErr error
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		if _, lastErr = c.Stats(ctx); lastErr == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service at %s not ready after %v: %w", baseURL, timeout, lastErr)
		case <-t.C:
		}
	}
}
