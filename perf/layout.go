package perf

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// HotFunctions are the simulator's inner loops. PR 13 found
// hostvm.(*VM).runBlock layout-sensitive: an unrelated one-byte table
// moved it off a 64-byte boundary and cost 3–4 % of guest_mips, so a few
// per cent on a must-not-move row is read against these addresses before
// it is argued about.
var HotFunctions = []string{
	"darco/internal/hostvm.(*VM).runBlock",
	"darco/internal/hostvm.(*VM).Run",
	"darco/internal/timing.(*Core).Consume",
	"darco/internal/guest.RunBlock",
	"darco/internal/guestvm.(*VM).Run",
}

// ParseNM extracts the text addresses of HotFunctions from `go tool nm`
// output. A function the linker dropped or the compiler inlined
// everywhere is absent from the result.
func ParseNM(nm string) map[string]uint64 {
	addrs := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(nm))
	for sc.Scan() {
		f := strings.Fields(sc.Text()) // address, type, symbol
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		for _, fn := range HotFunctions {
			if f[2] == fn {
				if a, err := strconv.ParseUint(f[0], 16, 64); err == nil {
					addrs[fn] = a
				}
			}
		}
	}
	return addrs
}

// FormatLayout renders one line per hot function with its address and
// address modulo 64 in each binary (one or two), flagging the functions
// whose alignment differs between two binaries. It reports whether any
// does.
func FormatLayout(names []string, addrs []map[string]uint64) (string, bool) {
	var b strings.Builder
	differs := false
	for _, fn := range HotFunctions {
		fmt.Fprintf(&b, "%-42s", strings.TrimPrefix(fn, "darco/internal/"))
		mods := make([]int, len(addrs))
		for i, m := range addrs {
			if a, ok := m[fn]; ok {
				mods[i] = int(a % 64)
				fmt.Fprintf(&b, "  %s: %#x mod 64 = %d", names[i], a, mods[i])
			} else {
				mods[i] = -1
				fmt.Fprintf(&b, "  %s: absent", names[i])
			}
		}
		if len(mods) == 2 && mods[0] != mods[1] {
			differs = true
			b.WriteString("  DIFFERS")
		}
		b.WriteByte('\n')
	}
	return b.String(), differs
}
