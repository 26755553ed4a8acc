package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseOptionsDefaults(t *testing.T) {
	opt, err := parseOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opt.addr != ":8090" {
		t.Errorf("addr = %q", opt.addr)
	}
	cfg := opt.cfg
	if cfg.Tokens != nil {
		t.Errorf("default tokens = %v, want none (open server)", cfg.Tokens)
	}
	if cfg.JobWorkers != 2 || cfg.QueueDepth != 16 || cfg.SimWorkers != 0 {
		t.Errorf("worker defaults: %d/%d/%d", cfg.JobWorkers, cfg.QueueDepth, cfg.SimWorkers)
	}
	if cfg.CacheBytes != 64<<20 || cfg.MaxJobs != 256 || cfg.RetryAfter != time.Second {
		t.Errorf("cache/retention defaults: %d bytes, %d jobs, %v", cfg.CacheBytes, cfg.MaxJobs, cfg.RetryAfter)
	}
	if cfg.Logf != nil {
		t.Error("default Logf set without -v")
	}
}

func TestParseOptionsFlags(t *testing.T) {
	opt, err := parseOptions([]string{
		"-addr", ":7070", "-token", "alice, bob", "-job-workers", "4",
		"-queue", "2", "-sim-workers", "3",
		"-cache-mb", "8", "-retry-after", "5s", "-v",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.addr != ":7070" {
		t.Errorf("addr = %q", opt.addr)
	}
	cfg := opt.cfg
	if !reflect.DeepEqual(cfg.Tokens, []string{"alice", "bob"}) {
		t.Errorf("tokens = %v", cfg.Tokens)
	}
	if cfg.JobWorkers != 4 || cfg.QueueDepth != 2 {
		t.Errorf("admission: %d workers, queue %d", cfg.JobWorkers, cfg.QueueDepth)
	}
	if cfg.SimWorkers != 3 {
		t.Errorf("sim workers = %d", cfg.SimWorkers)
	}
	if cfg.CacheBytes != 8<<20 || cfg.RetryAfter != 5*time.Second {
		t.Errorf("cache %d bytes, retry-after %v", cfg.CacheBytes, cfg.RetryAfter)
	}
	if cfg.Logf == nil {
		t.Error("-v did not wire Logf")
	}
}

func TestParseOptionsErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "flag provided but not defined"},
		{[]string{"-cache-mb", "0"}, "positive budget"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		_, err := parseOptions(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseOptions(%v) error = %v, want %q", tc.args, err, tc.want)
		}
	}
}
