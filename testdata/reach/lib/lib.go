// Package lib holds the fixture's declarations, dead and live.
package lib

import "fmt"

// Shape is a module interface that main calls.
type Shape interface {
	Area() int
}

// Square is reached through Shape only.
type Square struct{ side int }

// NewSquare makes a square.
func NewSquare(side int) *Sq { return &Sq{side} }

// Area is reached only through a call of Shape.Area.
func (s *Square) Area() int { return s.side * s.side }

// Sq names Square through an alias.
type Sq = Square

// Diagonal is dead: no code calls it, and no interface has it. Its
// receiver is spelled through the alias.
func (s *Sq) Diagonal() int { return s.side * 14 / 10 }

// Color is reached only through fmt.
type Color int

// String is reached because fmt.Stringer is a standard interface.
func (c Color) String() string { return fmt.Sprintf("color %d", int(c)) }

// Box is a generic type.
type Box[T any] struct{ v T }

// NewBox makes a box.
func NewBox[T any](v T) *Box[T] { return &Box[T]{v} }

// Get is a generic method, reached through an instantiation.
func (b *Box[T]) Get() T { return b.v }

// Set is a generic method nothing calls.
func (b *Box[T]) Set(v T) { b.v = v }

// Graph is reached, but its Stats method is not.
type Graph struct{ Nodes int }

// Stats is dead, though the live Counter.Stats shares its name.
func (g *Graph) Stats() int { return g.Nodes }

// Counter is reached, and so is its Stats.
type Counter struct{ n int }

// Stats is live.
func (c Counter) Stats() int { return c.n }

// Dead is called by nothing.
func Dead() int { return helper() }

// helper is called only by Dead.
func helper() int { return 1 }
