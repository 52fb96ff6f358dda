// Command reachfix is the reachability audit's fixture: its dead and live
// declarations are known, and the audit must report exactly the dead ones.
package main

import (
	"fmt"

	"reachfix/lib"
)

func main() {
	var s lib.Shape = lib.NewSquare(2)
	b := lib.NewBox(3)
	g := lib.Graph{Nodes: 4}
	var c lib.Counter
	fmt.Println(s.Area(), lib.Color(1), b.Get(), g.Nodes, c.Stats())
	n := 5
	_ = n
}
