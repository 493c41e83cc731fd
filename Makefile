GO ?= go

.PHONY: build test race vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race gate CI runs: every package, slow sweeps trimmed by -short.
race:
	$(GO) test -race -short ./...

# Build xdealvet and run the whole module through it via go vet.
vet:
	@mkdir -p bin
	$(GO) build -o bin/xdealvet ./cmd/xdealvet
	$(GO) vet -vettool=$(CURDIR)/bin/xdealvet ./...

# CI's allocation-budget gate: fail if the block-production hot path
# allocates more than the bytes/deal ceiling in allocbudget_test.go.
.PHONY: alloc-gate
alloc-gate:
	$(GO) test -run TestAllocationBudgetPerDeal -v .
