package draft

// Freeze returns a view of d with online learning hidden: the returned
// drafter does not implement Observer, so engines that feed generated
// tokens back into learning drafters (the n-gram retrieval drafter) see
// state frozen for the duration of decoding. A frozen drafter's proposals
// depend only on the query context, which makes served token streams
// bit-reproducible across batch compositions and admission orders — the
// property the scheduler's run-to-completion-equivalence tests pin.
// Deployments that want online adaptation simply serve the unfrozen
// drafter and give up bit-reproducibility (losslessness in distribution
// holds either way: verification never depends on proposal quality).
func Freeze(d Drafter) Drafter { return frozen{d} }

// frozen embeds the Drafter interface value: only Drafter's methods are
// promoted, so type assertions to Observer (or anything else the concrete
// drafter implements) fail.
type frozen struct{ Drafter }
