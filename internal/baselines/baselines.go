// Package baselines declares, on the same simulator substrate and the
// same core.Protocol slot protocol as IChannels, the four covert channels
// the paper compares against (§6.2, Fig. 12, Table 2):
//
//   - NetSpectre [Schwarz+ ESORICS'19]: single-level AVX2 throttle
//     side-effect on the same hardware thread — 1 bit per transaction.
//   - TurboCC [Kalmbach+ '20]: cross-core Turbo-frequency modulation via
//     PHI licenses — bits take tens of milliseconds because frequency
//     restoration is on the PMU's slow hysteresis.
//   - DFScovert [Alagappan+ VLSI-SoC'17]: software DVFS governor
//     modulation — slower still (tens of ms per governor actuation).
//   - PowerT [Khatamifard+ HPCA'19]: thermal-state modulation — bits ride
//     the millisecond-scale die thermal time constant.
//
// Each baseline actually transmits bits through the simulated mechanism;
// throughput differences against IChannels emerge from mechanism latency,
// exactly as the paper argues.
package baselines

import (
	"fmt"

	"ichannels/internal/soc"
)

// needTwoCores rejects a machine too small for a cross-core baseline.
func needTwoCores(m *soc.Machine, name string) error {
	if m == nil {
		return fmt.Errorf("baselines: nil machine")
	}
	if len(m.Cores) < 2 {
		return fmt.Errorf("baselines: %s needs two cores", name)
	}
	return nil
}
