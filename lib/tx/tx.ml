module Machine = Core.Machine
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Vaddr = Nvmpi_addr.Kinds.Vaddr

type t = {
  os : Objstore.t;
  mutable active : bool;
  logged : (int, unit) Hashtbl.t; (* word addresses undo-logged this tx *)
  dirty : (int, unit) Hashtbl.t; (* line addresses dirtied this tx *)
}

exception Not_in_transaction
exception Already_in_transaction

let create os =
  { os; active = false; logged = Hashtbl.create 64; dirty = Hashtbl.create 64 }

let objstore t = t.os
let active t = t.active
let mem t = (Objstore.machine t.os).Machine.mem
let timing t = (Objstore.machine t.os).Machine.timing

let line_of t a = a land lnot (Timing.line_bytes (timing t) - 1)

let begin_tx t =
  if t.active then raise Already_in_transaction;
  t.active <- true;
  Hashtbl.reset t.logged;
  Hashtbl.reset t.dirty

let commit t =
  if not t.active then raise Not_in_transaction;
  Hashtbl.iter (fun line () -> Timing.flush (timing t) ~addr:line) t.dirty;
  Timing.fence (timing t);
  Objstore.log_reset t.os;
  t.active <- false;
  Hashtbl.reset t.logged;
  Hashtbl.reset t.dirty

let abort t =
  if not t.active then raise Not_in_transaction;
  Objstore.log_rollback t.os;
  t.active <- false;
  Hashtbl.reset t.logged;
  Hashtbl.reset t.dirty

let simulate_crash t =
  if not t.active then raise Not_in_transaction;
  t.active <- false;
  Hashtbl.reset t.logged;
  Hashtbl.reset t.dirty;
  (* With a faultsim tracker attached, materialize the full-cache-loss
     crash: live memory reverts to its durable (flushed-and-fenced)
     bytes. Without one there is no durability record, so memory is
     conservatively left as-is — every dirty line "happened" to reach
     NVM, the worst torn state the undo log must recover from. *)
  match (Objstore.machine t.os).Machine.crash_hook with
  | Some materialize -> materialize ()
  | None -> ()

let run t f =
  begin_tx t;
  match f () with
  | v ->
      commit t;
      v
  | exception e ->
      abort t;
      raise e

let add_range t ~addr:(addr : Vaddr.t) ~len =
  if not t.active then raise Not_in_transaction;
  Objstore.log_append t.os ~addr ~len;
  let addr = (addr :> int) in
  let rec mark a =
    if a < addr + len then begin
      Hashtbl.replace t.logged (a land lnot 7) ();
      mark (a + 8)
    end
  in
  mark (addr land lnot 7);
  Hashtbl.replace t.dirty (line_of t addr) ();
  Hashtbl.replace t.dirty (line_of t (addr + len - 1)) ()

(* Freshly allocated ranges hold no old data worth undo-logging, but
   their bytes still have to reach NVM when the transaction commits —
   otherwise a crash after commit leaves durable pointers into
   never-persisted objects. Marking the words as logged suppresses
   per-store log records; marking every covered line dirty makes
   [commit] flush them. *)
let add_fresh t ~addr:(addr : Vaddr.t) ~len =
  if not t.active then raise Not_in_transaction;
  if len <= 0 then invalid_arg "Tx.add_fresh";
  let addr = (addr :> int) in
  let rec mark a =
    if a < addr + len then begin
      Hashtbl.replace t.logged (a land lnot 7) ();
      mark (a + 8)
    end
  in
  mark (addr land lnot 7);
  let line = line_of t addr in
  let last = line_of t (addr + len - 1) in
  let step = Timing.line_bytes (timing t) in
  let rec cover l =
    if l <= last then begin
      Hashtbl.replace t.dirty l ();
      cover (l + step)
    end
  in
  cover line

let store64 t (a : Vaddr.t) v =
  if t.active then begin
    if not (Hashtbl.mem t.logged (a :> int)) then begin
      Objstore.log_append t.os ~addr:a ~len:8;
      Hashtbl.replace t.logged (a :> int) ()
    end;
    Hashtbl.replace t.dirty (line_of t (a :> int)) ()
  end;
  Memsim.store64 (mem t) a v

let load64 t (a : Vaddr.t) =
  Objstore.touch_read t.os;
  Memsim.load64 (mem t) a
