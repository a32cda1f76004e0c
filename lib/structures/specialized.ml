(** Pre-instantiated (structure × representation) bundles.

    [Spec (P)] applies every structure functor in this library to one
    pointer representation, yielding the full specialized structure set
    for that representation in a single application. {!of_kind} selects
    one of nine static applications performed once at program start, so
    code that picks the representation at run time (the instance layer,
    the conformance executor, wordcount) applies no functor and builds
    no module per instance. Applying [Spec] to [(val Repr.m kind)]
    yields the same code through a runtime application. Adding a
    representation touches [repr.ml], [engine.ml] and the table below. *)

module Spec (P : Core.Repr_sig.S) = struct
  module List = Linked_list.Make (P)
  module Btree = Bstree.Make (P)
  module Hashset = Hashset.Make (P)
  module Trie = Trie.Make (P)
  module Dllist = Dllist.Make (P)
  module Graph = Graph.Make (P)
  module Bplus = Bplus.Make (P)
end

(* The anonymous argument keeps every structure type abstract; applied
   to the path [Core.Normal_ptr] the signature would pin them to
   [Normal]'s. *)
module type S = module type of Spec (struct include Core.Normal_ptr end)

module Normal = Spec (Core.Normal_ptr)
module Off_holder = Spec (Core.Off_holder)
module Riv = Spec (Core.Riv)
module Fat = Spec (Core.Fat)
module Fat_cached = Spec (Core.Fat_cached)
module Based = Spec (Core.Based_ptr)
module Swizzle = Spec (Core.Swizzle)
module Packed_fat = Spec (Core.Packed_fat)
module Hw_oid = Spec (Core.Hw_oid)

let of_kind : Core.Repr.kind -> (module S) = function
  | Normal -> (module Normal)
  | Off_holder -> (module Off_holder)
  | Riv -> (module Riv)
  | Fat -> (module Fat)
  | Fat_cached -> (module Fat_cached)
  | Based -> (module Based)
  | Swizzle -> (module Swizzle)
  | Packed_fat -> (module Packed_fat)
  | Hw_oid -> (module Hw_oid)
