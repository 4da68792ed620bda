package main

import "testing"

// TestLoadSmoke drives a scaled-down run of every default protocol through
// the library entry point — the same path `hhload` runs from the command
// line and CI's ingest smoke job exercises.
func TestLoadSmoke(t *testing.T) {
	for _, proto := range []string{"pes", "hashtogram", "streamhg"} {
		t.Run(proto+"/batch", func(t *testing.T) {
			cfg := loadConfig{
				Protocol: proto, Devices: 20000, Conns: 4, Batch: 1024,
				Eps: 4, ItemBytes: 4, ZipfS: 1.1, Support: 1000,
				Seed: 7, Y: 16,
			}
			res, err := runLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Absorbed != cfg.Devices {
				t.Fatalf("absorbed %d of %d", res.Absorbed, cfg.Devices)
			}
			if res.ReportsPerSec <= 0 {
				t.Fatalf("reports/sec = %v", res.ReportsPerSec)
			}
			if res.P99IngestMS < res.P50IngestMS {
				t.Fatalf("p99 %.3fms below p50 %.3fms", res.P99IngestMS, res.P50IngestMS)
			}
		})
	}
}

// TestLoadOpenLoopRate pins the pacing path: a throttled run must still
// deliver every report and take at least as long as the arrival schedule.
func TestLoadOpenLoopRate(t *testing.T) {
	cfg := loadConfig{
		Protocol: "hashtogram", Devices: 8000, Conns: 2, Batch: 1000,
		Rate: 100000, // 8k reports at 100k/s: the schedule spans >= 70ms
		Eps:  4, ItemBytes: 4, ZipfS: 1.1, Support: 100, Seed: 7,
	}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Absorbed != cfg.Devices {
		t.Fatalf("absorbed %d of %d", res.Absorbed, cfg.Devices)
	}
	if res.ElapsedMS < 60 {
		t.Fatalf("open-loop run finished in %dms, faster than the %v-slot arrival schedule allows",
			res.ElapsedMS, cfg.Rate)
	}
}
