package monitor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// 129-tap MCP4131 over the configured range.
	if cfg.Taps != 129 {
		t.Errorf("taps = %d, want 129", cfg.Taps)
	}
	// Resolution must be finer than the paper's Vq (47.9 mV) or the
	// controller cannot express its threshold slides.
	if r := cfg.Resolution(); r > 0.0479/2 {
		t.Errorf("resolution %.1f mV too coarse for Vq", r*1e3)
	}
}

func TestConfigValidation(t *testing.T) {
	mut := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.VMax = c.VMin }),
		mut(func(c *Config) { c.Taps = 1 }),
		mut(func(c *Config) { c.PropagationDelay = -1 }),
		mut(func(c *Config) { c.ISRCPUSeconds = -1 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestQuantizeSnapsToGrid(t *testing.T) {
	cfg := DefaultConfig()
	step := cfg.Resolution()
	for _, v := range []float64{4.0, 4.73, 5.3, 5.69} {
		q := cfg.Quantize(v)
		if math.Abs(q-v) > step/2+1e-12 {
			t.Errorf("Quantize(%g) = %g, further than half a step", v, q)
		}
		// Must be an exact grid point.
		k := (q - cfg.VMin) / step
		if math.Abs(k-math.Round(k)) > 1e-9 {
			t.Errorf("Quantize(%g) = %g not on grid", v, q)
		}
	}
}

func TestQuantizeClamps(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Quantize(0) != cfg.VMin {
		t.Error("below-range not clamped to VMin")
	}
	if cfg.Quantize(99) != cfg.VMax {
		t.Error("above-range not clamped to VMax")
	}
}

func TestQuickQuantizeIdempotent(t *testing.T) {
	cfg := DefaultConfig()
	f := func(raw float64) bool {
		v := math.Mod(math.Abs(raw), 10)
		q := cfg.Quantize(v)
		return cfg.Quantize(q) == q && q >= cfg.VMin && q <= cfg.VMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestChannelProgramming(t *testing.T) {
	ch, err := NewChannel(DefaultConfig(), 5.2)
	if err != nil {
		t.Fatal(err)
	}
	actual, cpu := ch.Program(5.31)
	if cpu <= 0 {
		t.Error("SPI programming should cost CPU time")
	}
	if actual != ch.Threshold() {
		t.Error("returned threshold disagrees with state")
	}
	if ch.InterruptDelay() <= 0 {
		t.Error("interrupt delay must be positive")
	}
}

func TestHardwareAccounting(t *testing.T) {
	hw, err := NewHardware(DefaultConfig(), 5.4, 5.2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 1.61 mW for the two channels.
	if p := hw.PowerWatts(); math.Abs(p-1.61e-3) > 0.1e-3 {
		t.Errorf("monitor power %.2f mW, want 1.61", p*1e3)
	}
	if hw.High.Threshold() <= hw.Low.Threshold() {
		t.Error("threshold ordering broken")
	}
	hw.RecordInterrupt()
	hw.RecordInterrupt()
	hw.RecordProgramming()
	if hw.Interrupts() != 2 {
		t.Errorf("interrupts = %d", hw.Interrupts())
	}
	cfg := DefaultConfig()
	if cpu := hw.CPUOverhead(1); cpu != 2*cfg.ISRCPUSeconds+cfg.SPICPUSeconds {
		t.Errorf("CPU accounting %g s, want two ISRs and one SPI update", cpu)
	}
	// Overhead: the paper's run measured ≈0.104%; two ISRs over an hour
	// is far below that.
	if ov := hw.CPUOverhead(3600); ov <= 0 || ov > 1e-4 {
		t.Errorf("overhead = %g", ov)
	}
	if hw.CPUOverhead(0) != 0 {
		t.Error("zero-duration overhead should be 0")
	}
}

func TestHardwareBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Taps = 0
	if _, err := NewHardware(cfg, 5.4, 5.2); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPaperOverheadMagnitude(t *testing.T) {
	// Reconstruct the paper's Fig. 15 arithmetic: at the interrupt rate
	// seen in our Fig. 12 run (≈12/s), ISR + two SPI updates per event
	// should land near 0.1% CPU.
	cfg := DefaultConfig()
	perEvent := cfg.ISRCPUSeconds + 2*cfg.SPICPUSeconds
	overhead := 12.0 * perEvent // per second of wall time
	if overhead < 0.0005 || overhead > 0.003 {
		t.Errorf("per-second overhead %g outside the paper's 0.1%% order", overhead)
	}
}
