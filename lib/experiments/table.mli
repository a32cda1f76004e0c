(** Minimal fixed-width table rendering for experiment reports, plus
    the machine-readable face of the same results.

    [rows] are the human-formatted cells that {!print} renders;
    [records] carry the underlying numbers — typically one JSON record
    per table row, each an object [{"row": label, "cells": [...]}]
    whose cells hold raw simulated cycle counts, slowdown ratios and
    counter breakdowns (see [docs/METRICS.md] for the schema). Rendered
    rows that aggregate several runs (averages) instead carry one
    record per underlying run. [nvmpi check] regresses against
    the records, never the rendered strings. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
  records : Nvmpi_obs.Json.t list;
      (** machine-readable records, one per measured row/run *)
}

val cell_f : float -> string
(** Formats a ratio/overhead with two decimals ("1.24"). *)

val cell_opt : float option -> string
(** "-" for [None]. *)

val render : Format.formatter -> t -> unit
val print : t -> unit
(** Renders to stdout. *)

val to_json : t -> Nvmpi_obs.Json.t
(** The full table — title, header, rendered rows, notes and row
    records — as one JSON object. *)
