package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// peakRSSMB reports the process's peak resident set size (VmHWM) in
// MiB. The second return is false where the kernel does not expose
// /proc/self/status (non-Linux), so callers can skip the ceiling check
// rather than fail a run the platform cannot measure.
func peakRSSMB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// "VmHWM:  123456 kB" — the high-water mark of the resident set.
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

// checkPeakRSS enforces the -max-rss-mb ceiling on the peak mb that
// peakRSSMB read after a run finished (ok false where it could not):
// the scale-smoke CI job uses it to pin the engine's memory model (a
// million-user run must stay within the compact-frontier budget, not
// drift back to N fully built users). limitMB <= 0 disables the check;
// an unmeasurable platform passes.
func checkPeakRSS(w io.Writer, limitMB int, mb float64, ok bool) error {
	if limitMB <= 0 || !ok {
		return nil
	}
	if mb > float64(limitMB) {
		return fmt.Errorf("peak RSS %.0f MiB exceeds -max-rss-mb %d", mb, limitMB)
	}
	fmt.Fprintf(w, "peak RSS %.0f MiB within -max-rss-mb %d\n", mb, limitMB)
	return nil
}
