"""ImageNet training-split size.

The ResNet50 benchmark processes the ImageNet training split --
1,281,167 images (the count the paper states for Figure 3's
energy-per-epoch axis).  The actual pixels never matter to the
performance substrate; the image count sets the epoch length the
energy-per-epoch figures divide by.
"""

#: Images in the ImageNet-1k training split (paper §IV-B).
IMAGENET_TRAIN_IMAGES = 1_281_167
