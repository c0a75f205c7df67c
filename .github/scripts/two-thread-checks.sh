#!/usr/bin/env bash
# A 2D n=256 step splits each solve across two threads where the process may run on two CPUs;
# pinned to one CPU (taskset -c 0) it steps on one thread. Each check below compares the two, and
# each of its commands gets five minutes: a hand-off that deadlocked would stall until then.
# Run from the repository root with psg installed: bash -eo pipefail .github/scripts/two-thread-checks.sh
set -eo pipefail
limit() { timeout 300 "$@"; }
mkdir -p out

echo "A two-thread 2D run writes the bytes of its one-core run, for each model"
# bdf2 carries f(u) in one field, and each thread writes f's rows of its own half
for model_init in "sg pi_sin_sin" "ac sin_sin"; do
  set -- $model_init
  args="--model $1 --scheme bdf2 --dim 2 --n 256 --kappa 0.2 --tau 0.01 --steps 20 --snap-every 10 --init $2"
  limit taskset -c 0 psg run $args --out "out/one-core-$1"
  limit psg run $args --out "out/all-cores-$1"
  for f in series.csv report.txt snap_10.psg snap_20.psg; do cmp "out/one-core-$1/$f" "out/all-cores-$1/$f"; done
done

echo "A 2D sweep writes the bytes of its one-core sweep"
# a lone member splits its steps between the calling thread and its helper; two members step unsplit
# side by side, the calling thread's and a worker thread's, and with three the thread that finishes
# first takes the third; pinned to one CPU, every member steps on the calling thread
args="--model sg --scheme imex1 --dim 2 --n 256 --kappa 0.2 --steps 20 --init pi_sin_sin"
for taus in 0.25 0.1,0.25 0.1,0.25,0.5; do
  limit taskset -c 0 psg sweep $args --tau-list $taus --out "out/sweep-one-core-$taus"
  limit psg sweep $args --tau-list $taus --out "out/sweep-all-cores-$taus"
  cmp "out/sweep-one-core-$taus/sweep.csv" "out/sweep-all-cores-$taus/sweep.csv"
done

echo "A two-thread convergence fit returns its one-core slopes"
# convergence_order steps unrecorded, so its split steps form the next step's right-hand side in
# their last row stage; the CLI always records, so the byte check above never reaches those steps
fit='import psg; c = psg.ExperimentConfig(psg.ModelKind.SINE_GORDON, psg.SchemeKind.IMEX1, 2, 0.2, 0.01, 256, t_final=0.08, init="pi_sin_sin"); print([repr(psg.convergence_order(c, s, 0.01, 3, 0.08)) for s in psg.SchemeKind])'
limit taskset -c 0 python -c "$fit" > out/fit-one-core.txt
limit python -c "$fit" > out/fit-all-cores.txt
cmp out/fit-one-core.txt out/fit-all-cores.txt

echo "A split 2D blow-up exits 2"
# bdf2 at tau = 1000: the record's potential energy overflows at step 5 (about 0.1 s) on the calling
# thread, and the run must end its helper and exit, not hang
args="--model ac --scheme bdf2 --dim 2 --n 256 --kappa 0.2 --tau 1000 --steps 20 --init sin_sin"
for pin in "" "taskset -c 0"; do
  code=0
  limit $pin psg run $args --out "out/split-blowup${pin:+-one-core}" || code=$?
  test "$code" -eq 2
done
