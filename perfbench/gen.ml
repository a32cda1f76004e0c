(* Seeded input generation owned by the benchmark: the zipfian stream,
   key sets and values. Nothing here calls into the simulator, so a
   change to the library cannot change the traffic. *)

let rng ~seed ~tag = Random.State.make [| seed; tag; 0x9E37 |]

(* YCSB's zipfian generator (Gray et al., "Quickly generating
   billion-record synthetic databases"): rank 0 is the most popular. *)
module Zipf = struct
  type t = { n : int; theta : float; zetan : float; alpha : float; eta : float }

  let make ~n ~theta =
    let zeta k =
      let s = ref 0.0 in
      for i = 1 to k do
        s := !s +. (1.0 /. (float_of_int i ** theta))
      done;
      !s
    in
    let zetan = zeta n in
    let zeta2 = zeta (min n 2) in
    let eta =
      if n <= 2 then 0.0
      else
        (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta)))
        /. (1.0 -. (zeta2 /. zetan))
    in
    { n; theta; zetan; alpha = 1.0 /. (1.0 -. theta); eta }

  let next z st =
    let u = Random.State.float st 1.0 in
    let uz = u *. z.zetan in
    if uz < 1.0 || z.n = 1 then 0
    else if uz < 1.0 +. (0.5 ** z.theta) then 1
    else
      let r =
        int_of_float
          (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha))
      in
      max 0 (min (z.n - 1) r)
end

(* Fisher-Yates permutation of [0, n): maps popularity ranks to IDs so
   the hot set depends on the seed. *)
let permutation st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [n] distinct keys drawn from [1, bound). *)
let distinct_keys st ~n ~bound =
  let p = permutation st (bound - 1) in
  Array.init n (fun i -> p.(i) + 1)

let mix64 x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x3fb5d329728ea185 in
  let x = x lxor (x lsr 27) in
  let x = x * 0x01dadef4bc2dd44d in
  x lxor (x lsr 33)

(* The value stored for (tenant, key) at [version]: a deterministic
   function of the seed, so the reference map only keeps versions.
   With [size_churn] the length varies per version in [1, max_len]. *)
let value ~seed ~tenant ~key ~version ~max_len ~size_churn =
  let h = (((seed * 1_000_003) + tenant) * 1_000_033) + key in
  let h = mix64 ((h * 7919) + version) in
  let h = h land max_int in
  let len = if size_churn then 1 + (h mod max_len) else max_len in
  String.init len (fun i -> Char.chr (97 + (((h lsr (i mod 48)) + i) mod 26)))
