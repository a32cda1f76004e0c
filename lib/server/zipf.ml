type t = {
  n : int;
  theta : float;
  zetan : float;  (* zeta(n, theta) *)
  cdf : float array;  (* cdf.(r) = P(rank <= r); empty when theta = 0 *)
}

let v ~n ~theta =
  if n < 1 then invalid_arg "Zipf.v: n must be >= 1";
  if not (theta >= 0.0 && theta < 1.0) then
    invalid_arg "Zipf.v: theta must be in [0, 1)";
  if theta = 0.0 then { n; theta; zetan = 0.0; cdf = [||] }
  else begin
    let cdf = Array.make n 0.0 in
    let s = ref 0.0 in
    for r = 0 to n - 1 do
      s := !s +. (1.0 /. (float_of_int (r + 1) ** theta));
      cdf.(r) <- !s
    done;
    let zetan = !s in
    for r = 0 to n - 1 do
      cdf.(r) <- cdf.(r) /. zetan
    done;
    (* Make the final bucket absorb any accumulated rounding, so every
       u in [0, 1) finds a rank. *)
    cdf.(n - 1) <- 1.0;
    { n; theta; zetan; cdf }
  end

let n t = t.n
let theta t = t.theta

let next t st =
  if t.theta = 0.0 then Random.State.int st t.n
  else begin
    let u = Random.State.float st 1.0 in
    (* Smallest rank with cdf.(rank) > u. *)
    let lo = ref 0 and hi = ref (t.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
  end

let expected_prob t r =
  if r < 0 || r >= t.n then invalid_arg "Zipf.expected_prob: rank out of range";
  if t.theta = 0.0 then 1.0 /. float_of_int t.n
  else 1.0 /. (float_of_int (r + 1) ** t.theta) /. t.zetan
