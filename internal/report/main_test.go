package report

import (
	"testing"

	"husgraph/internal/leaktest"
)

func TestMain(m *testing.M) { leaktest.Main(m) }
