package perf

import (
	"strings"
	"testing"
)

const nmSample = `  75a200 T darco/internal/guest.RunBlock
  75a240 T darco/internal/guest.RunBlock.func1
  78e000 T darco/internal/guestvm.(*VM).Run
  78e400 T darco/internal/guestvm.(*VM).RunContext
  76b960 T darco/internal/hostvm.(*VM).runBlock
  76b400 T darco/internal/hostvm.(*VM).Run
  9a1000 D darco/internal/timing.(*Core).Consume
         U runtime.foo
`

func TestParseNMAndFormatLayout(t *testing.T) {
	a := ParseNM(nmSample)
	if len(a) != 4 || a["darco/internal/hostvm.(*VM).Run"] != 0x76b400 || a["darco/internal/guest.RunBlock"] != 0x75a200 || a["darco/internal/guestvm.(*VM).Run"] != 0x78e000 || a["darco/internal/hostvm.(*VM).runBlock"] != 0x76b960 {
		t.Fatalf("parsed %v", a)
	}
	b := ParseNM(strings.Replace(nmSample, "76b960", "76b950", 1))
	out, differs := FormatLayout([]string{"parent", "change"}, []map[string]uint64{a, b})
	if !differs {
		t.Errorf("runBlock moved from mod 32 to mod 16 but nothing was flagged:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		flagged := strings.HasSuffix(line, "DIFFERS")
		switch {
		case strings.HasPrefix(line, "hostvm.(*VM).runBlock"):
			if !flagged || !strings.Contains(line, "0x76b960 mod 64 = 32") || !strings.Contains(line, "mod 64 = 16") {
				t.Errorf("runBlock line: %s", line)
			}
		case strings.HasPrefix(line, "timing.(*Core).Consume"):
			if flagged || strings.Count(line, "absent") != 2 {
				t.Errorf("a data symbol is not a function address: %s", line)
			}
		case flagged:
			t.Errorf("unmoved function flagged: %s", line)
		}
	}
	if _, differs := FormatLayout([]string{"one"}, []map[string]uint64{a}); differs {
		t.Errorf("a single binary cannot differ from itself")
	}
}
