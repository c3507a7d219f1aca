package seda

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
)

// TestRunNetworkCtxBackgroundIdentical pins that the context plumbing
// is figure-neutral: the Ctx entry point under context.Background
// produces exactly the rows of the plain call.
func TestRunNetworkCtxBackgroundIdentical(t *testing.T) {
	npu := EdgeNPU()
	net := model.ByName("let")
	want := runOne(t, npu, net, SuiteOptions{Workers: 1})
	suite, err := RunSuiteOptsCtx(context.Background(), npu, []*model.Network{net}, SuiteOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := suite.Rows[net.Name]
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Ctx variant diverged from the plain call under Background")
	}
}

// TestRunNetworkPreCancelled: a dead context returns its error without
// evaluating.
func TestRunNetworkPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	suite, err := RunSuiteOptsCtx(ctx, EdgeNPU(), []*model.Network{model.ByName("let")}, SuiteOptions{Workers: 1})
	if !errors.Is(err, context.Canceled) || suite != nil {
		t.Fatalf("suite=%v err=%v, want nil/Canceled", suite, err)
	}
}

// TestRunSuiteCancelledMidFlight: cancelling while a multi-workload
// sweep is running unwinds the whole pipeline — protection walk, DRAM
// drains, worker pool — well before the sweep could finish.
func TestRunSuiteCancelledMidFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// The full 13-workload edge suite takes seconds; the test
		// cancels it almost immediately.
		_, err := RunSuiteOptsCtx(ctx, EdgeNPU(), model.All(), DefaultSuiteOptions())
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled sweep did not unwind")
	}
}

// TestRunSuiteDeadline: a context deadline surfaces as
// DeadlineExceeded from the suite entry point.
func TestRunSuiteDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second sweep")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := RunSuiteOptsCtx(ctx, EdgeNPU(), model.All(), DefaultSuiteOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
