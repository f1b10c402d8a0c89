"""How many copies of the embedding matrix each call that handles it makes.

numpy reports its buffers to tracemalloc, so the peak that tracemalloc reads
over a call bounds what the call held at once. Each case runs on a bag model
whose embedding matrix, 8 MB, dwarfs every other array, and bounds the peak
in units of the matrix's size: a bound below 1 says the call makes no copy
of it, a bound below 2 that it makes one. The measured peaks are 0.004
(init), 0.02 (frozen fit), 0.03 (fine-tuned fit), 0.04 (save_checkpoint),
1.07 (load_checkpoint) and 1.04 (load_embeddings). fit keeps no copy of the
arrays it trains, fine-tuned or not: the best epoch is its on_best's to
keep. The bounds of the calls that construct ModelParameters or train lie
between that peak and the peak plus an eighth of the matrix, which a bool
mask of it, as a finiteness check by np.isfinite(arr).all() builds, would
add: 0.06 (init), 0.08 (frozen and fine-tuned fit) and 1.13
(load_checkpoint). The others lie about halfway between the peak and the
peak plus one matrix, which one more copy would add.
"""

import tracemalloc

import numpy as np

from hyponli.corpus import THREE_WAY
from hyponli.model import ModelConfig, ModelParameters, load_checkpoint, save_checkpoint
from hyponli.text import Vocabulary, load_embeddings, seeded_random_embeddings
from hyponli.train import TrainConfig, TrainState, fit

from helpers import SCRIPTED_DEV, discard, make_corpus, scripted_predictions

N_TOKENS, DIM = 3999, 250  # with the OOV row, 4,000 x 250 float64: 8 MB
VOCAB = Vocabulary(f"w{i}" for i in range(N_TOKENS))


def peak_in_matrices(call, *args, **kwargs):
    """(call's result, the peak memory it allocated, in embedding matrices)."""
    tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / (8 * (N_TOKENS + 1) * DIM)


def bag_params(finetune=False):
    config = ModelConfig("bag", embedding_dim=DIM, mlp_hidden=16, seed=1,
                         finetune_embeddings=finetune)
    emb = seeded_random_embeddings(VOCAB, DIM, seed=1)
    return ModelParameters.init(config, emb, VOCAB, THREE_WAY)


def test_init_takes_the_matrix_uncopied():
    config = ModelConfig("bag", embedding_dim=DIM, mlp_hidden=16, seed=1)
    emb = seeded_random_embeddings(VOCAB, DIM, seed=1)
    params, peak = peak_in_matrices(ModelParameters.init, config, emb, VOCAB, THREE_WAY)
    assert params.arrays["emb"] is emb
    assert peak < 0.06


def improving_fit(params):
    """fit over three epochs whose scripted dev accuracies each improve, so
    each is a new best epoch, handed to an on_best that keeps nothing."""
    names = THREE_WAY.names
    train = make_corpus([(f"w{i} w{i + 1} w{i + 2}", names[i % 3]) for i in range(12)])
    return fit((np.arange(12), train.labels), SCRIPTED_DEV, VOCAB.encode(train.hypotheses),
               params, TrainConfig(max_epochs=3, batch_size=4, seed=1), discard,
               predict=scripted_predictions(SCRIPTED_DEV[1], [0.0, 10.0, 20.0, 30.0]))


def test_fine_tuned_fit_copies_no_array():
    params = bag_params(finetune=True)
    state, peak = peak_in_matrices(improving_fit, params)
    assert [acc for *_, acc in state.history] == [10.0, 20.0, 30.0]
    assert isinstance(state, TrainState)  # fit returns no arrays
    assert peak < 0.08


def test_frozen_fit_copies_no_array():
    params = bag_params()
    emb = params.arrays["emb"].copy()
    state, peak = peak_in_matrices(improving_fit, params)
    assert peak < 0.08
    assert len(state.history) == 3
    assert isinstance(state, TrainState)  # fit returns no arrays
    assert np.array_equal(params.arrays["emb"], emb)


def test_save_checkpoint_writes_the_arrays_uncopied(tmp_path):
    _, peak = peak_in_matrices(save_checkpoint, bag_params(), tmp_path / "model.ckpt")
    assert peak < 0.5


def test_load_checkpoint_reads_each_array_once(tmp_path):
    params = bag_params()
    save_checkpoint(params, tmp_path / "model.ckpt")
    back, peak = peak_in_matrices(load_checkpoint, tmp_path / "model.ckpt")
    assert np.array_equal(back.arrays["emb"], params.arrays["emb"])
    assert peak < 1.13


def test_load_embeddings_takes_the_oov_mean_without_a_copy(tmp_path):
    """A file of every vocabulary word and no "<unk>" line, whose OOV row is
    the mean of all the matrix's other rows."""
    path = tmp_path / "vectors.txt"
    rng = np.random.default_rng(1)
    values = rng.integers(-8, 8, (N_TOKENS, DIM)) / 8
    path.write_text("".join(f"{token} {' '.join(map(str, row))}\n"
                            for token, row in zip(VOCAB.tokens, values.tolist())),
                    encoding="utf-8")
    matrix, peak = peak_in_matrices(load_embeddings, path, VOCAB, DIM)
    assert np.array_equal(matrix[:-1], values)
    assert np.array_equal(matrix[-1], values.mean(axis=0))
    assert peak < 1.5
