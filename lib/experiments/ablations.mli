(** Ablation studies for the design choices DESIGN.md calls out. Not
    figures from the paper — they answer "which part of the design buys
    the win?" questions the paper argues qualitatively.

    - {!translation}: isolates RIV's direct-mapped tables by comparing
      RIV against the packed-fat strawman from the paper's introduction
      (same 8-byte self-contained format, hashtable translation instead).
    - {!latency_sweep}: overheads as the emulated NVM read latency
      varies, showing the conclusions are not an artifact of one PMEP
      latency point.
    - {!cache_pressure}: off-holder/RIV/fat at growing element counts,
      showing how fat pointers' doubled slot size spills working sets
      out of cache earlier. *)

val translation : Figures.experiment
val latency_sweep : Figures.experiment
val cache_pressure : Figures.experiment

val cache_stats : Figures.experiment
(** Memory-system behaviour per representation on one workload: cache
    hit rates per level, NVM reads and ALU cycles of the measured phase,
    and absolute cycles per traversal. *)

val extension_structures : Figures.experiment
(** The Figure 12 experiment on the structures this library adds beyond
    the paper's four (doubly linked list, graph, B+ tree). *)

val all : ?scale:float -> ?seed:int -> ?durability:Core.Durability.t -> unit ->
  Table.t list
