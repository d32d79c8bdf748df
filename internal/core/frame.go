package core

import (
	"fmt"
	"math"

	"ichannels/internal/ecc"
)

// TransmitFrame sends a byte payload through the channel wrapped in the
// §6.3 noise-recovery framing: Hamming(7,4) coding, interleaving, and a
// CRC-8 end-to-end check, retransmitting up to maxAttempts times until the
// receiver validates the frame. It returns the attempt count and the last
// transmission's statistics alongside the recovered payload.
func (c *Channel) TransmitFrame(payload []byte, interleaveDepth, maxAttempts int) ([]byte, int, *Result, error) {
	if maxAttempts <= 0 {
		maxAttempts = 1
	}
	frame, err := ecc.EncodeFrame(payload, interleaveDepth)
	if err != nil {
		return nil, 0, nil, err
	}
	var last *Result
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		res, err := c.Transmit(frame)
		if err != nil {
			return nil, attempt, nil, err
		}
		last = res
		got, _, err := ecc.DecodeFrame(res.DecodedBits, interleaveDepth)
		if err == nil {
			return got, attempt, last, nil
		}
	}
	return nil, maxAttempts, last, fmt.Errorf("core: frame unrecoverable after %d attempts (last BER %.4f)", maxAttempts, last.BER)
}

// Confusion builds the symbol confusion matrix of a multi-level
// transmission: Confusion[s][d] counts transactions where symbol s was
// sent and d decoded.
func (r *Result) Confusion() [NumSymbols][NumSymbols]int {
	var m [NumSymbols][NumSymbols]int
	sent, _ := SymbolsFromBits(r.SentBits)
	decoded, _ := SymbolsFromBits(r.DecodedBits)
	for i := range sent {
		m[sent[i]][decoded[i]]++
	}
	return m
}

// CapacityBitsPerSymbol estimates the Shannon capacity of the discrete
// channel observed during a multi-level transmission: the mutual
// information I(S;D) of the empirical symbol confusion matrix, in bits
// per transaction. An error-free transmission of a uniform symbol stream
// approaches 2 bits — the paper's "two bits per communication
// transaction".
func (r *Result) CapacityBitsPerSymbol() float64 {
	m := r.Confusion()
	n := float64(len(r.SentBits) / BitsPerSlot)
	if n == 0 {
		return 0
	}
	var ps, pd [NumSymbols]float64
	for s := 0; s < NumSymbols; s++ {
		for d := 0; d < NumSymbols; d++ {
			p := float64(m[s][d]) / n
			ps[s] += p
			pd[d] += p
		}
	}
	var mi float64
	for s := 0; s < NumSymbols; s++ {
		for d := 0; d < NumSymbols; d++ {
			p := float64(m[s][d]) / n
			if p > 0 && ps[s] > 0 && pd[d] > 0 {
				mi += p * math.Log2(p/(ps[s]*pd[d]))
			}
		}
	}
	return mi
}

// CapacityBPS converts the mutual-information estimate to bits/second at
// the transmission's transaction rate.
func (r *Result) CapacityBPS() float64 {
	slots := len(r.SentBits) / BitsPerSlot
	if r.Elapsed <= 0 || slots == 0 {
		return 0
	}
	return r.CapacityBitsPerSymbol() * float64(slots) / r.Elapsed.Seconds()
}
