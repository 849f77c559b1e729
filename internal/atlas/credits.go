package atlas

import (
	"fmt"
	"sync"
)

// PingCost is the credit price of a single ping result, following the
// platform's pricing for user-defined measurements.
const PingCost = 10

// Ledger enforces the platform's daily credit budget. The paper commits
// to "work under the RA measurement constraints" (Section 2.5); a
// campaign that would exceed the budget must spread load across rounds.
// Ledger is safe for concurrent use.
type Ledger struct {
	dailyLimit int64

	mu    sync.Mutex
	spent map[int]int64 // day index -> credits
}

// NewLedger creates a ledger with the given daily credit limit. A limit
// of zero or less means unlimited.
func NewLedger(dailyLimit int64) *Ledger {
	return &Ledger{dailyLimit: dailyLimit, spent: make(map[int]int64)}
}

// ErrBudget is returned when a spend would exceed the daily limit.
type ErrBudget struct {
	Day    int
	Limit  int64
	Wanted int64
}

// Error implements the error interface.
func (e *ErrBudget) Error() string {
	return fmt.Sprintf("atlas: credit budget exceeded on day %d: %d > limit %d",
		e.Day, e.Wanted, e.Limit)
}

// Spend charges credits against the given day. It either charges the full
// amount or returns *ErrBudget without charging anything.
func (l *Ledger) Spend(day int, credits int64) error {
	if l.dailyLimit <= 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.spent[day]+credits > l.dailyLimit {
		return &ErrBudget{Day: day, Limit: l.dailyLimit, Wanted: l.spent[day] + credits}
	}
	l.spent[day] += credits
	return nil
}

// SpentOn returns the credits charged against a day so far.
func (l *Ledger) SpentOn(day int) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent[day]
}

// TotalSpent sums credits across all days.
func (l *Ledger) TotalSpent() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	for _, v := range l.spent {
		total += v
	}
	return total
}
