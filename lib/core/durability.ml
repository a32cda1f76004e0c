(** The persistence discipline a machine runs under, carried by
    {!Machine.t} and fixed at {!Machine.create}.

    - [Eager]: structure code issues no persistence actions; the
      kvstore runs undo-logged transactions (the default).
    - [Traverse]: link-and-persist durable sets for 8-byte-slot
      representations (docs/DURABLE.md).
    - [Snapshot_line] / [Snapshot_page]: failure-atomic sync epochs at
      line or page granularity (docs/SNAPSHOT.md); structure code runs
      eager and the kvstore takes the plain write path.

    Components that depend on the discipline ([Node.make],
    [Kvstore.create]/[attach], [Residency.provision], [Snapshot.create])
    read it from the machine they are given, so two machines in one
    process never influence each other. *)

type t = Eager | Traverse | Snapshot_line | Snapshot_page

let all = [ Eager; Traverse; Snapshot_line; Snapshot_page ]

(* The spellings of the front ends' [--durability] flag. *)
let to_string = function
  | Eager -> "eager"
  | Traverse -> "traverse"
  | Snapshot_line -> "snapshot"
  | Snapshot_page -> "snapshot-page"

let of_string s = List.find_opt (fun d -> to_string d = s) all

(* Whether the discipline moves durability to explicit sync epochs: the
   kvstore then takes the plain write path and tenant stores the
   flush-free freelist heap. *)
let is_snapshot = function
  | Snapshot_line | Snapshot_page -> true
  | Eager | Traverse -> false
